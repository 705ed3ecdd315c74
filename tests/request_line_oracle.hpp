#pragma once
// Test-only reference parser for the request grammar: the original
// std::istringstream implementation of parse_request_line, kept
// verbatim when the library switched to one parser (parse_request_view,
// service/request_view.hpp, which parse_request_line wraps). It
// stays an independent second implementation so tests/test_frame.cpp's
// equivalence corpus still compares two parsers that share no code.
//
// Known divergences, on purpose: istream extraction reads an int
// prefix, so this parser splits a p token like "3id=5" into p=3 plus
// the field id=5 and accepts the line (and words the error for "3abc"
// as a bad memory cap); std::stod also takes hex floats such as
// deadline_ms=0x1p3. The library rejects all of these. The equivalence
// corpus pins lines where the grammar, not the tokenizer, decides.

#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "service/request_line.hpp"

namespace treesched::oracle {

namespace {

std::uint64_t parse_uint_field(const std::string& key,
                               const std::string& value) {
  // Parsed from the token, not extracted as an unsigned directly —
  // istream extraction would wrap "-5" into a huge value without
  // setting failbit.
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(key + " \"" + value +
                                "\" is not a non-negative integer");
  }
  try {
    return std::stoull(value);
  } catch (const std::out_of_range&) {
    // The documented contract is std::invalid_argument for every parse
    // failure; overflow must not leak std::out_of_range past it.
    throw std::invalid_argument(key + " \"" + value +
                                "\" does not fit 64 bits");
  }
}

MemSize parse_memory_cap(const std::string& token) {
  return parse_uint_field("memory cap", token);
}

void apply_field(RequestLine& out, const std::string& key,
                 const std::string& value) {
  if (key == "priority") {
    const auto cls = parse_priority(value);
    if (!cls) {
      throw std::invalid_argument(
          "priority \"" + value + "\" (want interactive|batch|bulk)");
    }
    out.priority = *cls;
    return;
  }
  if (key == "deadline_ms") {
    std::size_t used = 0;
    double ms = 0.0;
    try {
      ms = std::stod(value, &used);
    } catch (const std::exception&) {
      used = std::string::npos;  // flag as unparsable below
    }
    if (used != value.size() || !(ms > 0.0)) {
      throw std::invalid_argument("deadline_ms \"" + value +
                                  "\" is not a positive number");
    }
    out.deadline_ms = ms;
    return;
  }
  if (key == "id") {
    out.id = parse_uint_field(key, value);
    return;
  }
  throw std::invalid_argument(
      "unknown request field \"" + key +
      "\" (known fields: priority, deadline_ms, id)");
}

RequestLine parse_cancel_line(std::istringstream& is) {
  RequestLine out;
  out.kind = RequestLine::Kind::kCancel;
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || token.substr(0, eq) != "id") {
      throw std::invalid_argument("cancel line must be: cancel id=<n> (got \"" +
                                  token + "\")");
    }
    if (out.id) {
      throw std::invalid_argument("duplicate request field \"id\"");
    }
    out.id = parse_uint_field("id", token.substr(eq + 1));
  }
  if (!out.id) {
    throw std::invalid_argument("cancel line must name a request: cancel id=<n>");
  }
  return out;
}

/// `trace start|stop|status|pull [id=<n>]` / `trace dump=<path>
/// [id=<n>]`: exactly one action, an optional tag. `pull` answers with
/// the recorder's spans encoded as stats pairs — the router's merged
/// dump collects every backend's ring through it.
RequestLine parse_trace_line(std::istringstream& is) {
  RequestLine out;
  out.kind = RequestLine::Kind::kTrace;
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      if (!out.trace_action.empty()) {
        throw std::invalid_argument("trailing token \"" + token + "\"");
      }
      if (token != "start" && token != "stop" && token != "status" &&
          token != "pull") {
        throw std::invalid_argument(
            "trace line must be: trace start|stop|status|pull|dump=<path> "
            "[id=<n>] (got \"" + token + "\")");
      }
      out.trace_action = token;
      continue;
    }
    const std::string key = token.substr(0, eq);
    if (key == "id") {
      if (out.id) {
        throw std::invalid_argument("duplicate request field \"id\"");
      }
      out.id = parse_uint_field("id", token.substr(eq + 1));
      continue;
    }
    if (key == "dump") {
      if (!out.trace_action.empty()) {
        throw std::invalid_argument("duplicate trace action \"" + token +
                                    "\"");
      }
      out.trace_path = token.substr(eq + 1);
      if (out.trace_path.empty()) {
        throw std::invalid_argument("trace dump= needs a path");
      }
      out.trace_action = "dump";
      continue;
    }
    throw std::invalid_argument("unknown trace field \"" + key +
                                "\" (known fields: dump, id)");
  }
  if (out.trace_action.empty()) {
    throw std::invalid_argument(
        "trace line must name an action: "
        "trace start|stop|status|pull|dump=<path>");
  }
  return out;
}

/// `ping [id=<n>]` and `stats [id=<n>]` share one shape: the verb plus
/// an optional tag, nothing else.
RequestLine parse_control_line(const std::string& verb,
                               RequestLine::Kind kind,
                               std::istringstream& is) {
  RequestLine out;
  out.kind = kind;
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || token.substr(0, eq) != "id") {
      throw std::invalid_argument(verb + " line must be: " + verb +
                                  " [id=<n>] (got \"" + token + "\")");
    }
    if (out.id) {
      throw std::invalid_argument("duplicate request field \"id\"");
    }
    out.id = parse_uint_field("id", token.substr(eq + 1));
  }
  return out;
}

RequestLine parse_request_line(const std::string& line) {
  std::istringstream is(line);
  RequestLine out;
  if (!(is >> out.tree_spec)) {
    throw std::invalid_argument("empty request line");
  }
  if (out.tree_spec == "cancel") return parse_cancel_line(is);
  if (out.tree_spec == "ping") {
    return parse_control_line("ping", RequestLine::Kind::kPing, is);
  }
  if (out.tree_spec == "stats") {
    return parse_control_line("stats", RequestLine::Kind::kStats, is);
  }
  if (out.tree_spec == "trace") return parse_trace_line(is);
  if (!(is >> out.algo >> out.p)) {
    throw std::invalid_argument(
        "request line must be: <tree-spec> <algo> <p> [<memory-cap>] "
        "[priority=...] [deadline_ms=...] [id=...] | cancel id=<n>");
  }
  bool saw_cap = false;
  bool saw_named = false;
  std::set<std::string> seen_keys;
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      if (saw_named || saw_cap) {
        throw std::invalid_argument("trailing token \"" + token + "\"");
      }
      out.memory_cap = parse_memory_cap(token);
      saw_cap = true;
      continue;
    }
    saw_named = true;
    const std::string key = token.substr(0, eq);
    if (!seen_keys.insert(key).second) {
      throw std::invalid_argument("duplicate request field \"" + key + "\"");
    }
    apply_field(out, key, token.substr(eq + 1));
  }
  return out;
}

}  // namespace

}  // namespace treesched::oracle

#include "service/request_view.hpp"

#include <charconv>

namespace treesched {

namespace {

constexpr std::string_view kSpace = " \t\r\n\v\f";

/// Pops the next whitespace-delimited token; empty view when exhausted.
std::string_view next_token(std::string_view& rest) {
  const std::size_t start = rest.find_first_not_of(kSpace);
  if (start == std::string_view::npos) {
    rest = {};
    return {};
  }
  std::size_t end = rest.find_first_of(kSpace, start);
  if (end == std::string_view::npos) end = rest.size();
  const std::string_view token = rest.substr(start, end - start);
  rest.remove_prefix(end);
  return token;
}

bool parse_u64(std::string_view key, std::string_view value,
               std::uint64_t& out, std::string& error) {
  // Digits only: from_chars would accept nothing else anyway, but the
  // explicit scan keeps "-5" and "0x10" rejections message-for-message
  // aligned with the v2 parser.
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string_view::npos) {
    error = std::string(key) + " \"" + std::string(value) +
            "\" is not a non-negative integer";
    return false;
  }
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    error = std::string(key) + " \"" + std::string(value) +
            "\" does not fit 64 bits";
    return false;
  }
  return true;
}

bool parse_int_token(std::string_view token, int& out) {
  // istream extraction accepts an optional leading '+'; from_chars does
  // not — strip it so the two parsers accept the same tokens.
  if (!token.empty() && token.front() == '+') token.remove_prefix(1);
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool parse_positive_double(std::string_view value, double& out) {
  // Same leading-'+' allowance as parse_int_token (std::stod took it).
  if (!value.empty() && value.front() == '+') value.remove_prefix(1);
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  return ec == std::errc() && ptr == value.data() + value.size() &&
         out > 0.0;
}

/// `cancel id=<n>` / `ping [id=<n>]` / `stats [id=<n>]`: the verb plus
/// (depending on `id_required`) an id tag, nothing else.
bool parse_control_view(std::string_view verb, RequestLine::Kind kind,
                        bool id_required, std::string_view rest,
                        RequestView& out, std::string& error) {
  out.kind = kind;
  for (std::string_view token = next_token(rest); !token.empty();
       token = next_token(rest)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || token.substr(0, eq) != "id") {
      error = std::string(verb) + " line must be: " + std::string(verb) +
              (id_required ? " id=<n>" : " [id=<n>]") + " (got \"" +
              std::string(token) + "\")";
      return false;
    }
    if (out.id) {
      error = "duplicate request field \"id\"";
      return false;
    }
    std::uint64_t id = 0;
    if (!parse_u64("id", token.substr(eq + 1), id, error)) return false;
    out.id = id;
  }
  if (id_required && !out.id) {
    error = "cancel line must name a request: cancel id=<n>";
    return false;
  }
  return true;
}

/// `trace start|stop|status|pull [id=<n>]` / `trace dump=<path>
/// [id=<n>]`, acceptance-identical to the v2 parse_trace_line.
bool parse_trace_view(std::string_view rest, RequestView& out,
                      std::string& error) {
  out.kind = RequestLine::Kind::kTrace;
  for (std::string_view token = next_token(rest); !token.empty();
       token = next_token(rest)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      if (!out.trace_action.empty()) {
        error = "trailing token \"" + std::string(token) + "\"";
        return false;
      }
      if (token != "start" && token != "stop" && token != "status" &&
          token != "pull") {
        error =
            "trace line must be: trace start|stop|status|pull|dump=<path> "
            "[id=<n>] (got \"" + std::string(token) + "\")";
        return false;
      }
      out.trace_action = token;
      continue;
    }
    const std::string_view key = token.substr(0, eq);
    if (key == "id") {
      if (out.id) {
        error = "duplicate request field \"id\"";
        return false;
      }
      std::uint64_t id = 0;
      if (!parse_u64("id", token.substr(eq + 1), id, error)) return false;
      out.id = id;
      continue;
    }
    if (key == "dump") {
      if (!out.trace_action.empty()) {
        error = "duplicate trace action \"" + std::string(token) + "\"";
        return false;
      }
      out.trace_path = token.substr(eq + 1);
      if (out.trace_path.empty()) {
        error = "trace dump= needs a path";
        return false;
      }
      out.trace_action = "dump";
      continue;
    }
    error = "unknown trace field \"" + std::string(key) +
            "\" (known fields: dump, id)";
    return false;
  }
  if (out.trace_action.empty()) {
    error =
        "trace line must name an action: "
        "trace start|stop|status|pull|dump=<path>";
    return false;
  }
  return true;
}

}  // namespace

bool parse_request_view(std::string_view line, RequestView& out,
                        std::string& error) {
  out = RequestView{};
  std::string_view rest = line;
  out.tree_spec = next_token(rest);
  if (out.tree_spec.empty()) {
    error = "empty request line";
    return false;
  }
  // The verb is not a tree spec — clear the field so a control-line
  // view is indistinguishable from the v2 parser's output.
  if (out.tree_spec == "cancel") {
    out.tree_spec = {};
    return parse_control_view("cancel", RequestLine::Kind::kCancel,
                              /*id_required=*/true, rest, out, error);
  }
  if (out.tree_spec == "ping") {
    out.tree_spec = {};
    return parse_control_view("ping", RequestLine::Kind::kPing,
                              /*id_required=*/false, rest, out, error);
  }
  if (out.tree_spec == "stats") {
    out.tree_spec = {};
    return parse_control_view("stats", RequestLine::Kind::kStats,
                              /*id_required=*/false, rest, out, error);
  }
  if (out.tree_spec == "trace") {
    out.tree_spec = {};
    return parse_trace_view(rest, out, error);
  }

  out.algo = next_token(rest);
  const std::string_view p_token = next_token(rest);
  if (out.algo.empty() || p_token.empty() ||
      !parse_int_token(p_token, out.p)) {
    error =
        "request line must be: <tree-spec> <algo> <p> [<memory-cap>] "
        "[priority=...] [deadline_ms=...] [id=...] | cancel id=<n>";
    return false;
  }

  bool saw_cap = false;
  bool saw_named = false;
  // Known named fields, tracked as bits — an unknown key errors outright,
  // so a three-bit mask is a complete duplicate detector.
  bool seen_priority = false, seen_deadline = false, seen_id = false;
  for (std::string_view token = next_token(rest); !token.empty();
       token = next_token(rest)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      if (saw_named || saw_cap) {
        error = "trailing token \"" + std::string(token) + "\"";
        return false;
      }
      if (!parse_u64("memory cap", token, out.memory_cap, error)) {
        return false;
      }
      saw_cap = true;
      continue;
    }
    saw_named = true;
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "priority") {
      if (seen_priority) {
        error = "duplicate request field \"priority\"";
        return false;
      }
      seen_priority = true;
      const auto cls = parse_priority(value);
      if (!cls) {
        error = "priority \"" + std::string(value) +
                "\" (want interactive|batch|bulk)";
        return false;
      }
      out.priority = *cls;
    } else if (key == "deadline_ms") {
      if (seen_deadline) {
        error = "duplicate request field \"deadline_ms\"";
        return false;
      }
      seen_deadline = true;
      if (!parse_positive_double(value, out.deadline_ms)) {
        error = "deadline_ms \"" + std::string(value) +
                "\" is not a positive number";
        return false;
      }
    } else if (key == "id") {
      if (seen_id) {
        error = "duplicate request field \"id\"";
        return false;
      }
      seen_id = true;
      std::uint64_t id = 0;
      if (!parse_u64("id", value, id, error)) return false;
      out.id = id;
    } else {
      error = "unknown request field \"" + std::string(key) +
              "\" (known fields: priority, deadline_ms, id)";
      return false;
    }
  }
  return true;
}

}  // namespace treesched

#include "service/ticket.hpp"

#include <utility>

#include "service/request_queue.hpp"

namespace treesched {

namespace detail {

namespace {

ServiceError empty_ticket_error() {
  return ServiceError{ErrorCode::kBadRequest,
                      "wait on an empty ticket (not obtained from submit())",
                      nullptr};
}

}  // namespace

void complete_ticket(const std::shared_ptr<TicketState>& state,
                     ServiceResult result) {
  std::function<void(const ServiceResult&)> hook;
  {
    const std::lock_guard<std::mutex> lock(state->mutex);
    if (state->result.has_value()) return;  // already settled
    state->result.emplace(std::move(result));
    // Claim the completion hook under the mutex — exactly one of
    // {settler, late subscriber} ever sees it non-empty — but run it
    // after unlocking so it may touch the ticket or block.
    hook = std::move(state->on_complete);
    state->on_complete = nullptr;
  }
  state->cv.notify_all();
  if (hook) hook(*state->result);
}

}  // namespace detail

ServiceResult Ticket::wait() {
  if (!state_) return detail::empty_ticket_error();
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->result.has_value(); });
  return *state_->result;
}

std::optional<ServiceResult> Ticket::wait_for(
    std::chrono::milliseconds timeout) {
  if (!state_) return detail::empty_ticket_error();
  std::unique_lock<std::mutex> lock(state_->mutex);
  if (!state_->cv.wait_for(lock, timeout,
                           [&] { return state_->result.has_value(); })) {
    return std::nullopt;
  }
  return *state_->result;
}

std::optional<ServiceResult> Ticket::try_get() {
  if (!state_) return detail::empty_ticket_error();
  const std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->result.has_value()) return std::nullopt;
  return *state_->result;
}

bool Ticket::cancel() {
  if (!state_ || !queue_) return false;
  // The queue arbitrates the race against worker pickup under its own
  // mutex: either the entry is still queued (we remove and settle it) or
  // a pop already claimed it (false, and the worker's answer stands).
  return queue_->cancel(seq_);
}

void Ticket::on_complete(std::function<void(const ServiceResult&)> fn) {
  if (!state_) {
    const ServiceResult result = detail::empty_ticket_error();
    fn(result);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->on_complete_attached) {
      throw std::logic_error(
          "Ticket::on_complete() may only be called once per ticket");
    }
    state_->on_complete_attached = true;
    if (!state_->result.has_value()) {
      state_->on_complete = std::move(fn);
      return;
    }
    // Already settled (the settle-before-subscribe race): fall through
    // and invoke on this thread, outside the lock.
  }
  fn(*state_->result);
}

}  // namespace treesched

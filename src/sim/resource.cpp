#include "sim/resource.hpp"

#include "common/check.hpp"

namespace columbia::sim {

Resource::Resource(Engine& engine, std::int64_t capacity)
    : engine_(&engine), capacity_(capacity), available_(capacity) {
  COL_REQUIRE(capacity > 0, "resource capacity must be positive");
}

void Resource::check_request(std::int64_t n) const {
  COL_REQUIRE(n > 0, "must acquire a positive number of units");
  COL_REQUIRE(n <= capacity_, "request exceeds resource capacity");
}

void Resource::take(std::int64_t n) {
  COL_CHECK(available_ >= n, "resource over-subscription");
  available_ -= n;
}

void Resource::release(std::int64_t n) {
  COL_REQUIRE(n > 0, "must release a positive number of units");
  available_ += n;
  COL_CHECK(available_ <= capacity_, "released more units than acquired");
  grant_waiters();
}

void Resource::grant_waiters() {
  while (!waiters_.empty() && waiters_.front().n <= available_) {
    Waiter w = waiters_.front();
    waiters_.pop_front();
    take(w.n);
    engine_->schedule_at(engine_->now(), w.granted);
  }
}

CoTask<void> Resource::use_for(Time duration, std::int64_t n) {
  co_await acquire(n);
  co_await engine_->delay(duration);
  release(n);
}

}  // namespace columbia::sim

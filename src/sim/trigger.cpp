#include "sim/trigger.hpp"

namespace columbia::sim {

void Trigger::fire() {
  if (fired_) return;
  fired_ = true;
  if (first_) engine_->schedule_at(engine_->now(), first_);
  for (auto h : later_) engine_->schedule_at(engine_->now(), h);
  later_.clear();
}

}  // namespace columbia::sim

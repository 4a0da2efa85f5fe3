#include "sim/timer.h"

namespace ecnsharp {

Timer::~Timer() {
  if (event_.valid()) sim_.DestroyPinned(event_);
}

void Timer::ScheduleAt(Time when) {
  order_ = sim_.ReserveOrder();
  expiry_ = when < sim_.Now() ? sim_.Now() : when;
  pending_ = true;
  if (armed_) {
    // The armed occurrence wakes first and re-arms at (expiry_, order_).
    if (armed_when_ <= expiry_) return;
    sim_.CancelPinned(event_);
  } else if (!event_.valid()) {
    event_ = sim_.CreatePinned([this] { Wake(); });
  }
  Arm();
}

void Timer::Arm() {
  sim_.SchedulePinnedAtOrdered(event_, expiry_, order_);
  armed_ = true;
  armed_when_ = expiry_;
  armed_order_ = order_;
}

void Timer::Wake() {
  armed_ = false;
  if (!pending_) return;  // cancelled since this occurrence was armed
  if (armed_order_ != order_) {
    // Re-armed to a later deadline: (expiry_, order_) is strictly after the
    // key of this occurrence, so it is still ahead in the event order.
    Arm();
    return;
  }
  pending_ = false;
  callback_();
}

}  // namespace ecnsharp

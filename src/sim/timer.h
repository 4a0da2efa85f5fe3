// One-shot, reschedulable timer built on Simulator events.
//
// Typical users are protocol state machines (TCP retransmission timer,
// delayed-ACK timer), which restart their deadline on nearly every ACK.
// Eagerly cancelling and re-pushing a heap entry per restart would leave one
// stale far-horizon entry per ACK, so the timer re-arms lazily instead:
//
//  - It owns one pinned event, registered on its first arm (a timer that is
//    never armed costs no simulator state).
//  - Every ScheduleAt reserves an order stamp with Simulator::ReserveOrder()
//    — the stamp an eager one-shot ScheduleAt would have consumed — and
//    records the (expiry, order) key.
//  - If the armed occurrence is due no later than the new deadline, nothing
//    is pushed: when it wakes early it re-arms at the recorded key. An
//    earlier deadline cancels the armed occurrence and re-arms at once.
//  - Cancel only clears pending(); the armed occurrence then wakes as a
//    no-op.
//
// Each real expiry therefore executes at exactly the (when, order) key the
// eager scheme used, so the callback sequence of a run is unchanged; the
// only extra dispatched events are the no-op wake-ups. Destruction releases
// the registration, so a Timer member can never fire into a destroyed
// object.
#ifndef ECNSHARP_SIM_TIMER_H_
#define ECNSHARP_SIM_TIMER_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.h"
#include "sim/time.h"

namespace ecnsharp {

class Timer {
 public:
  Timer(Simulator& sim, std::function<void()> callback)
      : sim_(sim), callback_(std::move(callback)) {}
  ~Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // (Re)arms the timer `delay` from now.
  void Schedule(Time delay) { ScheduleAt(sim_.Now() + delay); }
  // (Re)arms the timer at absolute time `when` (clamped to Now()).
  void ScheduleAt(Time when);
  void Cancel() { pending_ = false; }

  bool pending() const { return pending_; }
  // Absolute expiry time; meaningful only while pending().
  Time expiry() const { return expiry_; }

 private:
  void Arm();
  void Wake();

  Simulator& sim_;
  std::function<void()> callback_;
  // Deadline of the current arm and the order stamp it reserved.
  Time expiry_ = Time::Zero();
  std::uint64_t order_ = 0;
  // Key of the occurrence armed in the simulator, valid while armed_.
  Time armed_when_ = Time::Zero();
  std::uint64_t armed_order_ = 0;
  PinnedEventId event_;
  bool armed_ = false;
  bool pending_ = false;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SIM_TIMER_H_

// DelayLine: a netem-like stage that forwards packets to the next sink after
// an extra delay.
//
// The paper emulates RTT variation by adding sender-side delay with Linux
// netem (§2.3); a DelayLine with a fixed delay per host reproduces exactly
// that. With a stochastic sampler it models a variable-latency processing
// component (SLB, hypervisor, loaded network stack — §2.2).
//
// In-flight packets sit in one (deliver_at, order)-sorted queue drained by a
// single pinned event re-armed per delivery — O(1) per packet, no closure
// allocation — with order stamps reserved at arrival so deliveries
// interleave exactly like the legacy one-event-per-packet scheme
// (net/event_mode.h switches back to it for parity tests).
#ifndef ECNSHARP_NET_DELAY_LINE_H_
#define ECNSHARP_NET_DELAY_LINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "net/event_mode.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace ecnsharp {

class DelayLine : public PacketSink {
 public:
  // Fixed extra delay.
  DelayLine(Simulator& sim, PacketSink& next, Time delay)
      : sim_(sim), next_(next), delay_(delay) {
    deliver_event_ = sim_.CreatePinned([this] { DeliverFront(); });
  }

  // Stochastic extra delay: `sampler` is invoked once per packet. Note that
  // a stochastic stage can reorder packets, just like a real variable-latency
  // component.
  DelayLine(Simulator& sim, PacketSink& next, std::function<Time()> sampler)
      : DelayLine(sim, next, Time::Zero()) {
    sampler_ = std::move(sampler);
  }

  ~DelayLine() override { sim_.DestroyPinned(deliver_event_); }

  void HandlePacket(std::unique_ptr<Packet> pkt) override {
    const Time delay = sampler_ ? sampler_() : delay_;
    if (LegacyPerPacketEvents()) {
      sim_.Schedule(delay, [this, p = std::move(pkt)]() mutable {
        next_.HandlePacket(std::move(p));
      });
      return;
    }
    // Reserve the order stamp where the legacy path scheduled the event.
    Push(Entry{sim_.Now() + delay, sim_.ReserveOrder(), std::move(pkt)});
  }

  // Runtime reconfiguration (dynamics scripts shift the delay distribution
  // mid-run). Applies to packets that arrive after the call; packets already
  // in flight keep the delay they were scheduled with.
  void SetDelay(Time delay) {
    delay_ = delay;
    sampler_ = nullptr;
  }
  void SetSampler(std::function<Time()> sampler) {
    sampler_ = std::move(sampler);
  }

 private:
  struct Entry {
    Time deliver_at;
    std::uint64_t order;
    std::unique_ptr<Packet> pkt;
  };

  void Push(Entry entry) {
    // Sorted insert from the back: appends for fixed delays; a stochastic
    // sampler (which may reorder) walks only past later deliveries.
    auto it = queue_.end();
    while (it != queue_.begin()) {
      const Entry& prev = *std::prev(it);
      if (prev.deliver_at < entry.deliver_at ||
          (prev.deliver_at == entry.deliver_at && prev.order < entry.order)) {
        break;
      }
      --it;
    }
    const bool new_front = it == queue_.begin();
    queue_.insert(it, std::move(entry));
    if (new_front) {
      sim_.CancelPinned(deliver_event_);  // no-op when the line was empty
      sim_.SchedulePinnedAtOrdered(deliver_event_, queue_.front().deliver_at,
                                   queue_.front().order);
    }
  }

  void DeliverFront() {
    Entry entry = std::move(queue_.front());
    queue_.pop_front();
    if (!queue_.empty()) {
      sim_.SchedulePinnedAtOrdered(deliver_event_, queue_.front().deliver_at,
                                   queue_.front().order);
    }
    next_.HandlePacket(std::move(entry.pkt));
  }

  Simulator& sim_;
  PacketSink& next_;
  Time delay_;                     // used while no sampler is set
  std::function<Time()> sampler_;
  std::deque<Entry> queue_;
  PinnedEventId deliver_event_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_DELAY_LINE_H_

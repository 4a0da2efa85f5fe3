// Observers the traced run attaches from outside the library: a span
// recorder, a capturing PacketTracer for bottleneck ports, a counting
// TransportTracer, and the slice probe scheduled on the simulator.
#ifndef ECNSHARP_PERFBENCH_OBSERVE_H_
#define ECNSHARP_PERFBENCH_OBSERVE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/packet_tracer.h"
#include "net/queue_disc.h"
#include "sim/simulator.h"
#include "trace/transport_tracer.h"

namespace ecnsharp::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Spans kept in memory and written out once, when the traced run ends.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  SpanLog() : origin_(Clock::now()) {}

  // Opens a span and returns its id; Close() stamps the end.
  int Open(std::string name, int parent = kNoParent) {
    spans_.push_back(Span{std::move(name), Since(Clock::now()), -1.0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  double Close(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_s = Since(Clock::now());
    return span.end_s - span.start_s;
  }
  void Add(std::string name, Clock::time_point start, Clock::time_point end,
           int parent) {
    spans_.push_back(Span{std::move(name), Since(start), Since(end), parent});
  }

  // JSON array of {name, start_s, end_s, parent}, times relative to the
  // log's creation.
  std::string ToJson() const;

 private:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;
  };
  double Since(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// One event seen at a bottleneck port.
struct PortEvent {
  enum Kind : std::uint8_t { kEnqueue, kDequeue, kTransmit, kMark, kDrop };
  Time at;
  Time sojourn;
  FlowKey flow;
  std::uint64_t seq = 0;
  std::uint64_t bytes_after = 0;
  std::uint32_t packets_after = 0;
  std::uint32_t size = 0;
  std::uint32_t port = 0;
  Kind kind = kEnqueue;
  PacketType type = PacketType::kData;
  EcnCodepoint ecn = EcnCodepoint::kNotEct;
  DropReason reason = DropReason::kOverflow;
};

// Shared store for the capture taps of every port: counts every event and
// keeps the first `capacity` of them for the replay loops.
class Capture {
 public:
  explicit Capture(std::size_t capacity) : capacity_(capacity) {
    events_.reserve(capacity);
  }

  void Add(PortEvent event) {
    ++counts_[event.kind];
    if (events_.size() < capacity_) events_.push_back(event);
  }
  const std::vector<PortEvent>& events() const { return events_; }
  std::uint64_t count(PortEvent::Kind kind) const { return counts_[kind]; }

 private:
  std::size_t capacity_;
  std::vector<PortEvent> events_;
  std::uint64_t counts_[5] = {};
};

class CaptureTap : public PacketTracer {
 public:
  CaptureTap(Capture* capture, std::uint32_t port)
      : capture_(capture), port_(port) {}

  void OnTransmit(const Packet& pkt, Time at) override {
    capture_->Add(Make(PortEvent::kTransmit, pkt, at));
  }
  void OnDrop(const Packet& pkt, Time at, DropReason reason) override {
    PortEvent event = Make(PortEvent::kDrop, pkt, at);
    event.reason = reason;
    capture_->Add(event);
  }
  void OnMark(const Packet& pkt, Time at) override {
    capture_->Add(Make(PortEvent::kMark, pkt, at));
  }
  void OnEnqueue(const Packet& pkt, Time at,
                 const QueueSnapshot& after) override {
    PortEvent event = Make(PortEvent::kEnqueue, pkt, at);
    event.packets_after = after.packets;
    event.bytes_after = after.bytes;
    capture_->Add(event);
  }
  void OnDequeue(const Packet& pkt, Time at, const QueueSnapshot& after,
                 Time sojourn) override {
    PortEvent event = Make(PortEvent::kDequeue, pkt, at);
    event.packets_after = after.packets;
    event.bytes_after = after.bytes;
    event.sojourn = sojourn;
    capture_->Add(event);
  }

 private:
  PortEvent Make(PortEvent::Kind kind, const Packet& pkt, Time at) const {
    PortEvent event;
    event.kind = kind;
    event.at = at;
    event.flow = pkt.flow;
    event.seq = pkt.seq;
    event.size = pkt.size_bytes;
    event.port = port_;
    event.type = pkt.type;
    event.ecn = pkt.ecn;
    return event;
  }

  Capture* capture_;
  std::uint32_t port_;
};

class CountingTransport : public TransportTracer {
 public:
  void OnCwnd(const FlowKey&, Time, double, double) override { ++cwnd_; }
  void OnRttSample(const FlowKey&, Time, Time) override { ++rtt_; }
  void OnRetransmit(const FlowKey&, Time, std::uint64_t) override {
    ++retransmits_;
  }
  void OnRto(const FlowKey&, Time, std::uint32_t) override { ++timeouts_; }

  std::uint64_t cwnd_updates() const { return cwnd_; }
  std::uint64_t rtt_samples() const { return rtt_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }

 private:
  std::uint64_t cwnd_ = 0;
  std::uint64_t rtt_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
};

// Fires every 10 ms of simulated time: records the host time of the slice
// that just ended as a span and samples the pending-event count.
class SliceProbe {
 public:
  SliceProbe(Simulator& sim, SpanLog& spans, int parent)
      : sim_(sim), spans_(spans), parent_(parent) {}
  SliceProbe(const SliceProbe&) = delete;
  SliceProbe& operator=(const SliceProbe&) = delete;

  void Start() {
    last_ = Clock::now();
    sim_.Schedule(kSlice, [this] { Fire(); });
  }

  std::uint64_t fired() const { return fired_; }
  std::size_t pending_hwm() const { return pending_hwm_; }
  const std::vector<double>& slice_ms() const { return slice_ms_; }

 private:
  static constexpr Time kSlice = Time::Milliseconds(10);

  void Fire() {
    const Clock::time_point now = Clock::now();
    slice_ms_.push_back(SecondsBetween(last_, now) * 1e3);
    spans_.Add("sim.slice", last_, now, parent_);
    last_ = now;
    ++fired_;
    pending_hwm_ = std::max(pending_hwm_, sim_.pending_events());
    sim_.Schedule(kSlice, [this] { Fire(); });
  }

  Simulator& sim_;
  SpanLog& spans_;
  int parent_;
  Clock::time_point last_;
  std::uint64_t fired_ = 0;
  std::size_t pending_hwm_ = 0;
  std::vector<double> slice_ms_;
};

}  // namespace ecnsharp::perfbench

#endif  // ECNSHARP_PERFBENCH_OBSERVE_H_

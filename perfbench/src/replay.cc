#include "replay.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "harness/schemes.h"
#include "net/packet_pool.h"
#include "sched/fifo_queue_disc.h"
#include "sketch/telemetry.h"
#include "trace/trace_recorder.h"

namespace ecnsharp::perfbench {

namespace {

// Each loop runs this many times over its stream; the median rep counts.
constexpr int kReps = 5;
// Forwarding replays at most this many captured destinations per switch,
// timed in batches so that draining the egress queues stays untimed.
constexpr std::size_t kForwardPackets = 400'000;
constexpr std::size_t kForwardBatch = 256;
// A ring of live packets, so allocation and release interleave as they do
// on a port with a standing queue.
constexpr std::size_t kPacketRing = 64;

// Reused packets, so loops that do not time allocation stay free of it.
class PacketStash {
 public:
  std::unique_ptr<Packet> Take() {
    if (free_.empty()) return NewPacket();
    std::unique_ptr<Packet> pkt = std::move(free_.back());
    free_.pop_back();
    return pkt;
  }
  void Put(std::unique_ptr<Packet> pkt) { free_.push_back(std::move(pkt)); }

 private:
  std::vector<std::unique_ptr<Packet>> free_;
};

void Fill(Packet& pkt, const PortEvent& event) {
  pkt.flow = event.flow;
  pkt.type = event.type;
  pkt.size_bytes = event.size;
  pkt.payload_bytes =
      event.type == PacketType::kData && event.size > kDataHeaderBytes
          ? event.size - kDataHeaderBytes
          : 0;
  pkt.seq = event.seq;
  pkt.ecn = event.ecn;
}

template <typename Loop>
double MedianNsPerOp(Loop loop) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) reps.push_back(loop());
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

double NsPer(Clock::time_point start, Clock::time_point end,
             std::size_t ops) {
  return ops == 0 ? 0.0 : SecondsBetween(start, end) * 1e9 /
                              static_cast<double>(ops);
}

bool IsArrival(const PortEvent& event) {
  return event.kind == PortEvent::kEnqueue ||
         (event.kind == PortEvent::kDrop &&
          (event.reason == DropReason::kOverflow ||
           event.reason == DropReason::kAqm));
}

// The (enqueue, dequeue) pair of each packet that went through the port's
// FIFO, matched in arrival order.
struct QueuedPacket {
  PortEvent enqueue;
  PortEvent dequeue;
};

std::vector<QueuedPacket> PairFifo(const std::vector<PortEvent>& port) {
  std::vector<QueuedPacket> pairs;
  std::deque<const PortEvent*> queued;
  for (const PortEvent& event : port) {
    if (event.kind == PortEvent::kEnqueue) {
      queued.push_back(&event);
    } else if (event.kind == PortEvent::kDequeue && !queued.empty()) {
      pairs.push_back(QueuedPacket{*queued.front(), event});
      queued.pop_front();
    }
  }
  return pairs;
}

double PacketLoop(const std::vector<PortEvent>& port) {
  return MedianNsPerOp([&port] {
    std::vector<std::unique_ptr<Packet>> ring(kPacketRing);
    std::size_t ops = 0;
    const Clock::time_point start = Clock::now();
    for (const PortEvent& event : port) {
      if (!IsArrival(event)) continue;
      std::unique_ptr<Packet> pkt = NewPacket();
      Fill(*pkt, event);
      ring[ops % kPacketRing] = std::move(pkt);
      ++ops;
    }
    for (auto& slot : ring) slot.reset();
    return NsPer(start, Clock::now(), ops);
  });
}

double EnqueueDequeueLoop(const std::vector<PortEvent>& port,
                          std::uint64_t buffer_bytes) {
  return MedianNsPerOp([&port, buffer_bytes] {
    FifoQueueDisc disc(buffer_bytes, nullptr);
    PacketStash stash;
    for (int i = 0; i < 1024; ++i) stash.Put(NewPacket());
    std::size_t calls = 0;
    const Clock::time_point start = Clock::now();
    for (const PortEvent& event : port) {
      if (IsArrival(event)) {
        std::unique_ptr<Packet> pkt = stash.Take();
        Fill(*pkt, event);
        disc.Enqueue(std::move(pkt), event.at);
        ++calls;
      } else if (event.kind == PortEvent::kDequeue) {
        if (std::unique_ptr<Packet> pkt = disc.Dequeue(event.at)) {
          stash.Put(std::move(pkt));
        }
        ++calls;
      }
    }
    return NsPer(start, Clock::now(), calls / 2);
  });
}

double AqmLoop(Scheme scheme, const SchemeParams& params,
               const std::vector<QueuedPacket>& pairs) {
  return MedianNsPerOp([scheme, &params, &pairs] {
    std::unique_ptr<AqmPolicy> aqm = MakeAqm(scheme, params);
    Packet pkt;
    const Clock::time_point start = Clock::now();
    for (const QueuedPacket& pair : pairs) {
      Fill(pkt, pair.enqueue);
      const QueueSnapshot before{
          pair.enqueue.packets_after - 1,
          pair.enqueue.bytes_after - pair.enqueue.size};
      if (!aqm->AllowEnqueue(pkt, before, pair.enqueue.at)) continue;
      aqm->OnDequeue(pkt,
                     QueueSnapshot{pair.dequeue.packets_after,
                                   pair.dequeue.bytes_after},
                     pair.dequeue.at, pair.dequeue.sojourn);
    }
    return NsPer(start, Clock::now(), pairs.size());
  });
}

// Feeds every captured event of one port to `tap`, one call per event.
std::size_t FeedTap(PacketTracer& tap, const std::vector<PortEvent>& port) {
  Packet pkt;
  for (const PortEvent& event : port) {
    Fill(pkt, event);
    const QueueSnapshot after{event.packets_after, event.bytes_after};
    switch (event.kind) {
      case PortEvent::kEnqueue:
        tap.OnEnqueue(pkt, event.at, after);
        break;
      case PortEvent::kDequeue:
        tap.OnDequeue(pkt, event.at, after, event.sojourn);
        break;
      case PortEvent::kTransmit:
        tap.OnTransmit(pkt, event.at);
        break;
      case PortEvent::kMark:
        tap.OnMark(pkt, event.at);
        break;
      case PortEvent::kDrop:
        tap.OnDrop(pkt, event.at, event.reason);
        break;
    }
  }
  return port.size();
}

double TraceTapLoop(const RunSpec& spec, const std::vector<PortEvent>& port) {
  TraceConfig config = spec.trace;
  config.enabled = true;
  return MedianNsPerOp([&config, &port] {
    TraceRecorder recorder(config);
    PacketTracer& tap = *recorder.PortTap(recorder.RegisterSite("replay"));
    const Clock::time_point start = Clock::now();
    const std::size_t calls = FeedTap(tap, port);
    return NsPer(start, Clock::now(), calls);
  });
}

double SketchTapLoop(const RunSpec& spec, const std::vector<PortEvent>& port) {
  SketchConfig config = spec.sketch;
  config.enabled = true;
  return MedianNsPerOp([&config, &port] {
    SketchTelemetry telemetry(config);
    PacketTracer& tap = *telemetry.PortTap(telemetry.RegisterSite("replay"));
    const Clock::time_point start = Clock::now();
    const std::size_t calls = FeedTap(tap, port);
    return NsPer(start, Clock::now(), calls);
  });
}

// HandlePacket on a freshly built copy of the topology, whose simulator
// never runs: each egress port keeps its first packet in flight and queues
// the rest, and the untimed drain after each batch empties the queues.
double ForwardLoop(const RunSpec& spec, const std::vector<PortEvent>& events) {
  std::vector<const PortEvent*> stream;
  for (const PortEvent& event : events) {
    if (event.kind != PortEvent::kTransmit) continue;
    stream.push_back(&event);
    if (stream.size() == kForwardPackets) break;
  }
  if (stream.empty()) return 0.0;

  Composition replica(spec, /*external_observers=*/true);
  const SchemeParams params = ParamsFor(spec);
  replica.BuildTopology([&spec, &params](BufferPolicy* pool) {
    return MakeFifoDisc(spec.scheme, params, pool);
  });
  const Time now = replica.session().sim().Now();
  PacketStash stash;
  std::vector<std::unique_ptr<Packet>> batch;
  batch.reserve(kForwardBatch);
  return MedianNsPerOp([&] {
    double seconds = 0.0;
    std::size_t calls = 0;
    for (SwitchNode* node : replica.ForwardingSample()) {
      for (std::size_t i = 0; i < stream.size(); i += kForwardBatch) {
        const std::size_t end = std::min(stream.size(), i + kForwardBatch);
        for (std::size_t j = i; j < end; ++j) {
          batch.push_back(stash.Take());
          Fill(*batch.back(), *stream[j]);
        }
        const Clock::time_point start = Clock::now();
        for (auto& pkt : batch) node->HandlePacket(std::move(pkt));
        seconds += SecondsBetween(start, Clock::now());
        calls += batch.size();
        batch.clear();
        for (std::size_t p = 0; p < node->port_count(); ++p) {
          QueueDisc& disc = node->port(p).queue_disc();
          while (std::unique_ptr<Packet> pkt = disc.Dequeue(now)) {
            stash.Put(std::move(pkt));
          }
        }
      }
    }
    return calls == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(calls);
  });
}

}  // namespace

ReplayResult RunReplays(const RunSpec& spec,
                        const std::vector<PortEvent>& events, SpanLog& spans,
                        int parent) {
  ReplayResult result;
  // The busiest port by arrivals within the captured window.
  std::unordered_map<std::uint32_t, std::size_t> arrivals;
  std::uint32_t busiest = 0;
  std::size_t most = 0;
  for (const PortEvent& event : events) {
    if (!IsArrival(event)) continue;
    const std::size_t n = ++arrivals[event.port];
    if (n > most) {
      most = n;
      busiest = event.port;
    }
  }
  std::vector<PortEvent> port;
  for (const PortEvent& event : events) {
    if (event.port == busiest) port.push_back(event);
  }
  const SchemeParams params = ParamsFor(spec);

  int span = spans.Open("replay.packet", parent);
  result.packet_ns = PacketLoop(port);
  spans.Close(span);

  span = spans.Open("replay.sched", parent);
  result.enq_deq_ns = EnqueueDequeueLoop(port, params.buffer_bytes);
  spans.Close(span);

  const std::vector<QueuedPacket> pairs = PairFifo(port);
  for (const char* name : {"ecn-sharp", "ecn-sharp-tofino", "dctcp-red-tail",
                           "codel", "tcn", "pie"}) {
    Scheme scheme = Scheme::kEcnSharp;
    SchemeFromName(name, &scheme);
    span = spans.Open(std::string("replay.aqm.") + name, parent);
    result.aqm_ns.emplace_back(name, AqmLoop(scheme, params, pairs));
    spans.Close(span);
  }

  span = spans.Open("replay.trace_tap", parent);
  result.trace_tap_ns = TraceTapLoop(spec, port);
  spans.Close(span);

  span = spans.Open("replay.sketch_tap", parent);
  result.sketch_tap_ns = SketchTapLoop(spec, port);
  spans.Close(span);

  span = spans.Open("replay.forward", parent);
  result.forward_ns = ForwardLoop(spec, events);
  spans.Close(span);
  return result;
}

}  // namespace ecnsharp::perfbench

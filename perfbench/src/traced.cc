#include "traced.h"

#include <deque>
#include <memory>
#include <optional>

#include "core/ecn_sharp.h"
#include "harness/json.h"
#include "harness/schemes.h"
#include "harness/sketch_export.h"
#include "harness/trace_export.h"
#include "sched/fifo_queue_disc.h"
#include "sketch/telemetry.h"
#include "trace/trace_recorder.h"

namespace ecnsharp::perfbench {

namespace {

// The flight recorder and sketch telemetry the session's Bind would create
// for this workload, created here instead so the benchmark's taps can share
// their tracer slots. Labels, site order and border hints follow Bind.
struct Observers {
  std::shared_ptr<TraceRecorder> recorder;
  std::shared_ptr<SketchTelemetry> telemetry;
  std::deque<CaptureTap> captures;
  std::deque<TeeTracer> tees;
  std::optional<TeeTransportTracer> transport_pair;
  std::optional<TeeTransportTracer> transport;
  CountingTransport counter;

  void Install(const RunSpec& spec, Topology& topo, Capture& capture) {
    if (spec.trace.enabled) {
      recorder = std::make_shared<TraceRecorder>(spec.trace);
    }
    if (spec.sketch.enabled) {
      telemetry = std::make_shared<SketchTelemetry>(spec.sketch);
    }
    for (std::size_t b = 0; b < topo.bottleneck_count(); ++b) {
      EgressPort& port = topo.bottleneck(b);
      const std::string label = "bottleneck" + std::to_string(b);
      PacketTracer* trace_tap = nullptr;
      PacketTracer* sketch_tap = nullptr;
      if (recorder != nullptr) {
        trace_tap = recorder->PortTap(recorder->RegisterSite(label));
      }
      if (telemetry != nullptr) {
        const std::uint16_t site = telemetry->RegisterSite(label);
        sketch_tap = telemetry->PortTap(site);
        const Time hint = port.base_rtt_hint();
        if (hint > Time::Zero()) telemetry->SetSiteBaseRtt(site, hint);
      }
      PacketTracer* observer = trace_tap != nullptr ? trace_tap : sketch_tap;
      if (trace_tap != nullptr && sketch_tap != nullptr) {
        observer = &tees.emplace_back(trace_tap, sketch_tap);
      }
      PacketTracer* mine =
          &captures.emplace_back(&capture, static_cast<std::uint32_t>(b));
      port.SetTracer(observer == nullptr ? mine
                                         : &tees.emplace_back(observer, mine));
    }
    TransportTracer* observer = recorder.get();
    if (recorder == nullptr) observer = telemetry.get();
    if (recorder != nullptr && telemetry != nullptr) {
      transport_pair.emplace(recorder.get(), telemetry.get());
      observer = &*transport_pair;
    }
    transport.emplace(observer, &counter);
    for (std::size_t i = 0; i < topo.host_count(); ++i) {
      topo.stack(i).SetTransportTracer(&*transport);
    }
  }
};

std::string CheckAccounting(Topology& topo) {
  for (std::size_t b = 0; b < topo.bottleneck_count(); ++b) {
    const QueueDisc& disc = topo.bottleneck(b).queue_disc();
    const QueueDiscStats& stats = disc.stats();
    const std::uint64_t queued = disc.Snapshot().packets;
    if (stats.enqueued != stats.dequeued + stats.purged + queued) {
      return "bottleneck " + std::to_string(b) + ": enqueued " +
             std::to_string(stats.enqueued) + " != dequeued " +
             std::to_string(stats.dequeued) + " + purged " +
             std::to_string(stats.purged) + " + queued " +
             std::to_string(queued);
    }
  }
  return "";
}

}  // namespace

std::string SpanLog::ToJson() const {
  Json array = Json::Array();
  for (const Span& span : spans_) {
    array.Push(Json::Object()
                   .Set("name", Json::Str(span.name))
                   .Set("start_s", Json::Num(span.start_s))
                   .Set("end_s", Json::Num(span.end_s))
                   .Set("parent", Json::Int(span.parent)));
  }
  return array.Dump();
}

TracedSim RunTracedSim(const RunSpec& spec, Capture& capture, SpanLog& spans,
                       int parent) {
  TracedSim out;
  const int root = spans.Open("sim seed=" + std::to_string(spec.seed), parent);

  // Every disc the topology builds, so ECN#'s per-arm counters can be read
  // after the run.
  std::vector<QueueDisc*> discs;
  const SchemeParams params = ParamsFor(spec);
  const DiscFactory factory = [&spec, &params, &discs](BufferPolicy* pool) {
    std::unique_ptr<QueueDisc> disc = MakeFifoDisc(spec.scheme, params, pool);
    discs.push_back(disc.get());
    return disc;
  };

  int span = spans.Open("harness.session_ctor", root);
  Composition sim(spec, /*external_observers=*/true);
  out.session_s = spans.Close(span);

  span = spans.Open("topo.build", root);
  sim.BuildTopology(factory);
  out.topo_s = spans.Close(span);

  span = spans.Open("harness.bind", root);
  sim.Bind();
  out.bind_s = spans.Close(span);

  span = spans.Open("bench.install_taps", root);
  Observers observers;
  observers.Install(spec, sim.topo(), capture);
  spans.Close(span);

  const int run_span = spans.Open("harness.run", root);
  SliceProbe probe(sim.session().sim(), spans, run_span);
  probe.Start();
  sim.Run();
  out.run_s = spans.Close(run_span);

  span = spans.Open("harness.result", root);
  out.result = sim.Result();
  out.result_s = spans.Close(span);

  if (observers.recorder != nullptr) {
    span = spans.Open("trace.export", root);
    TraceToJson(*observers.recorder).Dump();
    out.trace_export_s = spans.Close(span);
    out.trace_events = observers.recorder->total_events();
  }
  if (observers.telemetry != nullptr) {
    span = spans.Open("sketch.export", root);
    SketchToJson(*observers.telemetry, observers.telemetry->last_update())
        .Dump();
    out.sketch_export_s = spans.Close(span);
    out.sketch_packets = observers.telemetry->packets_observed();
  }

  const Simulator& engine = sim.session().sim();
  out.events = engine.events_executed() - probe.fired();
  out.pending_hwm = probe.pending_hwm();
  out.slice_ms = probe.slice_ms();
  for (const SwitchNode* node : sim.Switches()) {
    out.switch_rx += node->rx_packets();
  }
  for (QueueDisc* disc : discs) {
    auto* fifo = dynamic_cast<FifoQueueDisc*>(disc);
    auto* ecn_sharp =
        fifo == nullptr ? nullptr : dynamic_cast<EcnSharpAqm*>(fifo->aqm());
    if (ecn_sharp == nullptr) continue;
    out.inst_marks += ecn_sharp->instantaneous_marks();
    out.pst_marks += ecn_sharp->persistent_marks();
  }
  out.timeouts = observers.counter.timeouts();
  out.retransmits = observers.counter.retransmits();
  out.rtt_samples = observers.counter.rtt_samples();
  out.cwnd_updates = observers.counter.cwnd_updates();
  out.accounting_error = CheckAccounting(sim.topo());
  spans.Close(root);
  return out;
}

}  // namespace ecnsharp::perfbench

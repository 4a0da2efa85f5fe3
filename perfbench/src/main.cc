// ecnbench: the benchmark's measuring process. run.py generates a config
// from the workload definition and a seed, then starts one ecnbench process
// per pass:
//
//   ecnbench run <config.json>
//       The runner's set-up on its own (session constructor + topology
//       constructor + Bind), cold then warm, then the simulation through the
//       public runner.
//   ecnbench trace <config.json> <spans.json>
//       The same simulation assembled from the runner's parts with the
//       benchmark's taps attached, then the replay loops; the spans are
//       written to <spans.json> at exit.
//
// Each prints one JSON object on stdout; run.py turns them into metrics.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/json.h"
#include "harness/schemes.h"
#include "replay.h"
#include "traced.h"
#include "workload.h"

namespace ecnsharp::perfbench {
namespace {

// Port events kept for the replay loops (64 bytes each).
constexpr std::size_t kCaptureEvents = 1'200'000;

// The simulated statistics a run is checked against: flows, CE marks,
// drops, timeouts, simulated seconds and the short-flow p99 FCT.
std::string StatsLine(std::uint64_t seed, const ExperimentResult& r) {
  char line[320];
  std::snprintf(line, sizeof(line),
                "seed=%" PRIu64 " started=%zu completed=%zu ce=%" PRIu64
                " drop_overflow=%" PRIu64 " drop_aqm=%" PRIu64
                " timeouts=%" PRIu64 " sim_s=%.9f short_p99_us=%.6f",
                seed, r.flows_started, r.flows_completed, r.bottleneck.ce_marked,
                r.bottleneck.dropped_overflow, r.bottleneck.dropped_aqm,
                r.timeouts, r.sim_seconds, r.short_flows.p99_us);
  return line;
}

// FNV-1a over the stats line.
std::string Digest(const std::string& line) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : line) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
  return hex;
}

// The fields both modes report about the simulation.
Json SimJson(const RunSpec& spec, const ExperimentResult& r) {
  const std::string line = StatsLine(spec.seed, r);
  return Json::Object()
      .Set("seed", Json::UInt(spec.seed))
      .Set("flows_started", Json::UInt(r.flows_started))
      .Set("flows_completed", Json::UInt(r.flows_completed))
      .Set("sim_s", Json::Num(r.sim_seconds))
      .Set("enqueued", Json::UInt(r.bottleneck.enqueued))
      .Set("dequeued", Json::UInt(r.bottleneck.dequeued))
      .Set("purged", Json::UInt(r.bottleneck.purged))
      .Set("stats", Json::Str(line))
      .Set("digest", Json::Str(Digest(line)));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

void Print(const Json& doc) {
  std::string text = doc.Dump();
  text.erase(std::remove(text.begin(), text.end(), '\n'), text.end());
  std::printf("%s\n", text.c_str());
}

// Session constructor + topology constructor + Bind, as the runner does
// them; returns their host seconds.
double SetUpOnce(const RunSpec& spec) {
  const SchemeParams params = ParamsFor(spec);
  const Clock::time_point start = Clock::now();
  Composition sim(spec, /*external_observers=*/false);
  sim.BuildTopology([&spec, &params](BufferPolicy* pool) {
    return MakeFifoDisc(spec.scheme, params, pool);
  });
  sim.Bind();
  return SecondsBetween(start, Clock::now());
}

int RunPass(const RunSpec& spec) {
  // The first set-up of the process is what one CLI run pays, cold caches
  // and lazy initialisation included. The second, warm one estimates the
  // set-up inside the runner call, which the run phase excludes.
  const double setup_s = SetUpOnce(spec);
  const double warm_setup_s = SetUpOnce(spec);

  std::size_t export_bytes = 0;
  const Clock::time_point start = Clock::now();
  const ExperimentResult result = RunThroughRunner(spec, &export_bytes);
  const double runner_s = SecondsBetween(start, Clock::now());
  Print(SimJson(spec, result)
            .Set("mode", Json::Str("run"))
            .Set("setup_s", Json::Num(setup_s))
            .Set("runner_s", Json::Num(runner_s))
            .Set("run_s", Json::Num(std::max(0.0, runner_s - warm_setup_s)))
            .Set("export_bytes", Json::UInt(export_bytes)));
  return 0;
}

int TracePass(const RunSpec& spec, const std::string& spans_path) {
  SpanLog spans;
  const int pass = spans.Open("pass " + spec.workload);
  Capture capture(kCaptureEvents);
  const TracedSim run = RunTracedSim(spec, capture, spans, pass);
  const int replay_span = spans.Open("replay", pass);
  const ReplayResult replay =
      RunReplays(spec, capture.events(), spans, replay_span);
  spans.Close(replay_span);
  spans.Close(pass);

  const QueueDiscStats& stats = run.result.bottleneck;
  std::string accounting_error = run.accounting_error;
  // The taps saw every dequeue and mark the disc counters hold.
  if (accounting_error.empty() &&
      (capture.count(PortEvent::kDequeue) != stats.dequeued ||
       capture.count(PortEvent::kMark) != stats.ce_marked)) {
    accounting_error = "tap counts differ from queue disc counters";
  }
  const auto ratio = [](double num, std::uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  Json layers = Json::Object();
  const auto count = [&layers](const char* name, std::uint64_t v) {
    layers.Set(name, Json::UInt(v));
  };
  const auto num = [&layers](const std::string& name, double v) {
    layers.Set(name, Json::Num(v));
  };
  count("sim.events", run.events);
  num("sim.events_per_hop", ratio(static_cast<double>(run.events), stats.dequeued));
  num("sim.ns_per_event", ratio((run.run_s + run.result_s) * 1e9, run.events));
  num("sim.slice_p50_ms", Percentile(run.slice_ms, 0.50));
  num("sim.slice_p99_ms", Percentile(run.slice_ms, 0.99));
  count("sim.pending_hwm", run.pending_hwm);
  count("net.hops", stats.dequeued);
  count("net.switch_rx", run.switch_rx);
  num("net.forward_ns", replay.forward_ns);
  num("net.packet_ns", replay.packet_ns);
  num("sched.enq_deq_ns", replay.enq_deq_ns);
  count("sched.drops_overflow", stats.dropped_overflow);
  count("sched.drops_aqm", stats.dropped_aqm);
  count("aqm.ce_marks", stats.ce_marked);
  num("aqm.mark_frac", ratio(static_cast<double>(stats.ce_marked), stats.dequeued));
  for (const auto& [scheme, ns] : replay.aqm_ns) {
    num("aqm.decision_ns." + scheme, ns);
  }
  count("core.inst_marks", run.inst_marks);
  count("core.pst_marks", run.pst_marks);
  count("transport.timeouts", run.timeouts);
  count("transport.retransmits", run.retransmits);
  count("transport.rtt_samples", run.rtt_samples);
  count("transport.cwnd_updates", run.cwnd_updates);
  num("topo.build_s", run.topo_s);
  num("harness.bind_s", run.bind_s);
  num("harness.result_s", run.result_s);
  count("sketch.packets", run.sketch_packets);
  num("sketch.tap_ns", replay.sketch_tap_ns);
  num("sketch.export_s", run.sketch_export_s);
  count("trace.events", run.trace_events);
  num("trace.tap_ns", replay.trace_tap_ns);
  num("trace.export_s", run.trace_export_s);

  std::ofstream out(spans_path);
  out << spans.ToJson();
  out.close();
  if (!out) {
    std::fprintf(stderr, "ecnbench: cannot write spans to %s\n",
                 spans_path.c_str());
    return 1;
  }

  Print(SimJson(spec, run.result)
            .Set("mode", Json::Str("trace"))
            .Set("accounting_error", Json::Str(accounting_error))
            .Set("run_s", Json::Num(run.run_s + run.result_s +
                                    run.trace_export_s + run.sketch_export_s))
            .Set("layers", layers));
  return 0;
}

}  // namespace

}  // namespace ecnsharp::perfbench

int main(int argc, char** argv) {
  using namespace ecnsharp::perfbench;
  const std::string mode = argc > 1 ? argv[1] : "";
  if (!((mode == "run" && argc == 3) || (mode == "trace" && argc == 4))) {
    std::fprintf(stderr,
                 "usage: ecnbench run <config.json>\n"
                 "       ecnbench trace <config.json> <spans.json>\n");
    return 2;
  }
  std::ifstream in(argv[2]);
  std::stringstream text;
  text << in.rdbuf();
  RunSpec spec;
  std::string error;
  if (!in || !ParseRunSpec(text.str(), &spec, &error)) {
    std::fprintf(stderr, "ecnbench: bad config %s: %s\n", argv[2],
                 error.c_str());
    return 2;
  }
  return mode == "run" ? RunPass(spec) : TracePass(spec, argv[3]);
}

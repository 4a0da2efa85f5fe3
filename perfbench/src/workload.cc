#include "workload.h"

#include <cmath>
#include <utility>

#include "harness/json.h"
#include "harness/sketch_export.h"
#include "harness/trace_export.h"
#include "sketch/telemetry.h"
#include "topo/composed.h"
#include "topo/dumbbell.h"
#include "topo/fat_tree.h"
#include "topo/leaf_spine.h"
#include "topo/rtt_variation.h"
#include "trace/trace_recorder.h"
#include "workload/traffic_generator.h"

namespace ecnsharp::perfbench {

namespace {

// The CLI's inter-DC defaults (tools/ecnsharp_cli.cc): one 10 G border link
// with a 2 ms border RTT between two default leaf-spine fabrics.
constexpr double kBorderRttUs = 2000.0;

DumbbellExperimentConfig DumbbellConfigFor(const RunSpec& spec) {
  DumbbellExperimentConfig config;
  config.scheme = spec.scheme;
  config.load = spec.load;
  config.flows = spec.flows;
  config.seed = spec.seed;
  config.trace = spec.trace;
  config.sketch = spec.sketch;
  return config;
}

FatTreeExperimentConfig FatTreeConfigFor(const RunSpec& spec) {
  FatTreeExperimentConfig config;
  config.scheme = spec.scheme;
  config.topo.k = spec.fattree_k;
  config.load = spec.load;
  config.flows = spec.flows;
  config.seed = spec.seed;
  config.trace = spec.trace;
  config.sketch = spec.sketch;
  return config;
}

InterDcExperimentConfig InterDcConfigFor(const RunSpec& spec) {
  InterDcExperimentConfig config;
  config.scheme = spec.scheme;
  config.topo.border_rtt = Time::FromMicroseconds(kBorderRttUs);
  config.load = spec.load;
  config.flows = spec.flows;
  config.seed = spec.seed;
  config.trace = spec.trace;
  config.sketch = spec.sketch;
  return config;
}

// The session config each runner builds (harness/experiment.cc), with the
// observers optionally left to the caller.
ExperimentSessionConfig SessionConfigFor(const RunSpec& spec,
                                         bool external_observers) {
  ExperimentSessionConfig session;
  session.seed = spec.seed;
  switch (spec.topo) {
    case TopoKind::kDumbbell: {
      const DumbbellExperimentConfig config = DumbbellConfigFor(spec);
      session.workload = config.workload;
      session.load = config.load;
      session.flows = config.flows;
      session.rtt_assignment =
          ExperimentSessionConfig::RttAssignment::kQuantiles;
      session.max_rtt_extra = config.base_rtt * (config.rtt_variation - 1.0);
      session.rtt_profile = RttProfile::kTestbed;
      session.max_sim_time = config.max_sim_time;
      break;
    }
    case TopoKind::kFatTree: {
      const FatTreeExperimentConfig config = FatTreeConfigFor(spec);
      session.workload = config.workload;
      session.load = config.load;
      session.flows = config.flows;
      session.rtt_assignment =
          ExperimentSessionConfig::RttAssignment::kPerHostSample;
      session.max_rtt_extra = config.max_extra_delay;
      session.rtt_profile = RttProfile::kLeafSpine;
      session.max_sim_time = config.max_sim_time;
      break;
    }
    case TopoKind::kInterDc: {
      const InterDcExperimentConfig config = InterDcConfigFor(spec);
      session.rtt_assignment = ExperimentSessionConfig::RttAssignment::kNone;
      session.max_sim_time = config.max_sim_time;
      break;
    }
  }
  if (!external_observers) {
    session.trace = spec.trace;
    session.sketch = spec.sketch;
  }
  return session;
}

std::size_t RenderExports(const ExperimentResult& result) {
  std::size_t bytes = 0;
  if (result.trace != nullptr) bytes += TraceToJson(*result.trace).Dump().size();
  if (result.sketch != nullptr) {
    bytes += SketchToJson(*result.sketch, result.sketch->last_update())
                 .Dump()
                 .size();
  }
  return bytes;
}

}  // namespace

bool SchemeFromName(const std::string& name, Scheme* out) {
  static const std::pair<const char*, Scheme> kNames[] = {
      {"ecn-sharp", Scheme::kEcnSharp},
      {"ecn-sharp-tofino", Scheme::kEcnSharpTofino},
      {"dctcp-red-tail", Scheme::kDctcpRedTail},
      {"codel", Scheme::kCodel},
      {"tcn", Scheme::kTcn},
      {"pie", Scheme::kPie},
  };
  for (const auto& [label, scheme] : kNames) {
    if (name == label) {
      *out = scheme;
      return true;
    }
  }
  return false;
}

bool ParseRunSpec(const std::string& text, RunSpec* out, std::string* error) {
  Json doc;
  if (!Json::Parse(text, &doc, error)) return false;
  const auto field = [&doc](const char* key) { return doc.Find(key); };
  const auto fail = [error](const std::string& message) {
    *error = message;
    return false;
  };
  RunSpec spec;
  const Json* name = field("workload");
  const Json* topo = field("topo");
  const Json* scheme = field("scheme");
  const Json* load = field("load");
  const Json* flows = field("flows");
  const Json* seed = field("seed");
  if (name == nullptr || topo == nullptr || scheme == nullptr ||
      load == nullptr || flows == nullptr || seed == nullptr) {
    return fail("config needs workload, topo, scheme, load, flows, seed");
  }
  spec.workload = name->AsString();
  if (topo->AsString() == "dumbbell") {
    spec.topo = TopoKind::kDumbbell;
  } else if (topo->AsString() == "fattree") {
    spec.topo = TopoKind::kFatTree;
  } else if (topo->AsString() == "interdc") {
    spec.topo = TopoKind::kInterDc;
  } else {
    return fail("unknown topo '" + topo->AsString() + "'");
  }
  if (!SchemeFromName(scheme->AsString(), &spec.scheme)) {
    return fail("unknown scheme '" + scheme->AsString() + "'");
  }
  spec.load = load->AsDouble();
  if (!(spec.load > 0.0 && spec.load < 1.0)) return fail("load not in (0, 1)");
  spec.flows = flows->AsUInt();
  if (spec.flows == 0) return fail("flows must be positive");
  spec.seed = seed->AsUInt();
  if (const Json* k = field("k")) spec.fattree_k = k->AsUInt();
  if (spec.fattree_k < 4 || spec.fattree_k % 2 != 0) {
    return fail("k must be an even integer >= 4");
  }
  if (const Json* sketch = field("sketch")) {
    if (!ParseSketchSpec(sketch->AsString(), &spec.sketch, error)) {
      return false;
    }
  }
  if (const Json* trace = field("trace")) {
    if (!ParseTraceSpec(trace->AsString(), &spec.trace, error)) return false;
  }
  *out = std::move(spec);
  return true;
}

SchemeParams ParamsFor(const RunSpec& spec) {
  switch (spec.topo) {
    case TopoKind::kDumbbell:
      return DumbbellConfigFor(spec).params;
    case TopoKind::kFatTree:
      return FatTreeConfigFor(spec).params;
    case TopoKind::kInterDc:
      return InterDcConfigFor(spec).params;
  }
  return SchemeParams();
}

ExperimentResult RunThroughRunner(const RunSpec& spec,
                                  std::size_t* export_bytes) {
  ExperimentResult result;
  switch (spec.topo) {
    case TopoKind::kDumbbell:
      result = RunDumbbell(DumbbellConfigFor(spec));
      break;
    case TopoKind::kFatTree:
      result = RunFatTree(FatTreeConfigFor(spec));
      break;
    case TopoKind::kInterDc:
      result = RunInterDc(InterDcConfigFor(spec));
      break;
  }
  *export_bytes = RenderExports(result);
  return result;
}

// RunInterDc's hand-wired split traffic matrix: per-side RTT extras and
// intra generators from Rng(seed + side), the border generator from
// Rng(seed + 2).
struct Composition::InterDcTraffic {
  FctCollector intra;
  FctCollector sides[2];
  FctCollector inter;
  std::unique_ptr<TrafficGenerator> generators[3];
};

Composition::Composition(const RunSpec& spec, bool external_observers)
    : spec_(spec),
      session_(std::make_unique<ExperimentSession>(
          SessionConfigFor(spec, external_observers))) {}

Composition::~Composition() = default;

void Composition::BuildTopology(const DiscFactory& factory) {
  Simulator& sim = session_->sim();
  switch (spec_.topo) {
    case TopoKind::kDumbbell: {
      const DumbbellExperimentConfig config = DumbbellConfigFor(spec_);
      DumbbellConfig topo_config;
      topo_config.senders = config.senders;
      topo_config.rate = config.rate;
      topo_config.base_rtt = config.base_rtt;
      topo_config.buffer_bytes = config.params.buffer_bytes;
      topo_config.tcp = config.tcp;
      topo_config.buffer_policy = config.buffer_policy;
      topo_ = std::make_unique<Dumbbell>(sim, topo_config, factory);
      break;
    }
    case TopoKind::kFatTree: {
      const FatTreeExperimentConfig config = FatTreeConfigFor(spec_);
      FatTreeConfig topo_config = config.topo;
      topo_config.buffer_bytes = config.params.buffer_bytes;
      topo_config.buffer_policy = config.buffer_policy;
      topo_ = std::make_unique<FatTree>(sim, topo_config, factory);
      break;
    }
    case TopoKind::kInterDc: {
      const InterDcExperimentConfig config = InterDcConfigFor(spec_);
      ComposedConfig topo_config = config.topo;
      topo_config.buffer_bytes = config.params.buffer_bytes;
      topo_config.buffer_policy = config.buffer_policy;
      for (ComposedSideConfig* side :
           {&topo_config.side_a, &topo_config.side_b}) {
        side->leaf_spine.buffer_bytes = config.params.buffer_bytes;
        side->leaf_spine.buffer_policy = config.buffer_policy;
        side->fat_tree.buffer_bytes = config.params.buffer_bytes;
        side->fat_tree.buffer_policy = config.buffer_policy;
      }
      topo_ = std::make_unique<ComposedTopology>(sim, topo_config, factory);
      break;
    }
  }
}

void Composition::Bind() {
  session_->Bind(*topo_);
  if (spec_.topo != TopoKind::kInterDc) return;

  const InterDcExperimentConfig config = InterDcConfigFor(spec_);
  auto& topo = static_cast<ComposedTopology&>(*topo_);
  Simulator& sim = session_->sim();
  interdc_ = std::make_unique<InterDcTraffic>();
  InterDcTraffic& traffic = *interdc_;
  FctCollector& collector = session_->collector();

  const auto inter_flows = static_cast<std::size_t>(
      std::llround(config.inter_fraction * static_cast<double>(config.flows)));
  const std::size_t intra_flows = config.flows - inter_flows;
  const std::size_t side_flows[2] = {(intra_flows + 1) / 2, intra_flows / 2};
  for (std::size_t s = 0; s < 2; ++s) {
    Rng rng(config.seed + s);
    for (std::size_t i = 0; i < topo.side_host_count(s); ++i) {
      topo.side(s).host(i).set_extra_egress_delay(SampleRttExtra(
          rng, config.max_extra_delay, RttProfile::kLeafSpine));
    }
    if (side_flows[s] == 0) continue;
    TrafficConfig generator_config;
    generator_config.load = config.load;
    generator_config.reference_capacity = topo.side(s).ReferenceCapacity();
    generator_config.flow_count = side_flows[s];
    generator_config.cubic_fraction = config.cc_mix;
    traffic.generators[s] = std::make_unique<TrafficGenerator>(
        sim, *config.workload, generator_config,
        [&topo, s](Rng& r) { return topo.SampleIntraPair(s, r); },
        [&collector, &traffic, s](const FlowRecord& record) {
          collector.Record(record);
          traffic.intra.Record(record);
          traffic.sides[s].Record(record);
        },
        rng.Fork());
  }
  if (inter_flows > 0) {
    Rng rng(config.seed + 2);
    TrafficConfig generator_config;
    generator_config.load = config.load;
    generator_config.reference_capacity = DataRate::BitsPerSecond(
        config.topo.border_rate.bps() *
        static_cast<std::int64_t>(config.topo.border_links));
    generator_config.flow_count = inter_flows;
    generator_config.cubic_fraction = config.cc_mix;
    traffic.generators[2] = std::make_unique<TrafficGenerator>(
        sim, *config.inter_workload, generator_config,
        [&topo](Rng& r) { return topo.SampleInterPair(r); },
        [&collector, &traffic](const FlowRecord& record) {
          collector.Record(record);
          traffic.inter.Record(record);
        },
        rng.Fork());
  }
}

void Composition::Run() {
  if (interdc_ == nullptr) {
    session_->Run();
    return;
  }
  for (auto& generator : interdc_->generators) {
    if (generator != nullptr) generator->Start();
  }
  session_->Run([this] {
    for (const auto& generator : interdc_->generators) {
      if (generator != nullptr && !generator->AllDone()) return true;
    }
    return false;
  });
}

ExperimentResult Composition::Result() {
  ExperimentResult result = session_->Result();
  if (interdc_ == nullptr) return result;
  for (const auto& generator : interdc_->generators) {
    if (generator == nullptr) continue;
    result.flows_started += generator->started();
    result.flows_completed += generator->completed();
  }
  result.intra_fct = interdc_->intra.Overall();
  result.intra_short_fct = interdc_->intra.ShortFlows();
  result.inter_fct = interdc_->inter.Overall();
  result.inter_short_fct = interdc_->inter.ShortFlows();
  result.intra_a_fct = interdc_->sides[0].Overall();
  result.intra_b_fct = interdc_->sides[1].Overall();
  result.intra_timeouts = interdc_->intra.total_timeouts();
  result.inter_timeouts = interdc_->inter.total_timeouts();
  return result;
}

std::vector<SwitchNode*> Composition::Switches() {
  std::vector<SwitchNode*> out;
  const auto add_leaf_spine = [&out](LeafSpine& fabric,
                                     const LeafSpineConfig& config) {
    for (std::size_t i = 0; i < fabric.leaf_count(); ++i) {
      out.push_back(&fabric.leaf(i));
    }
    for (std::size_t i = 0; i < config.spines; ++i) {
      out.push_back(&fabric.spine(i));
    }
  };
  switch (spec_.topo) {
    case TopoKind::kDumbbell:
      out.push_back(&static_cast<Dumbbell&>(*topo_).switch_node());
      break;
    case TopoKind::kFatTree: {
      auto& tree = static_cast<FatTree&>(*topo_);
      for (std::size_t i = 0; i < tree.edge_count(); ++i) {
        out.push_back(&tree.edge(i));
      }
      for (std::size_t i = 0; i < tree.agg_count(); ++i) {
        out.push_back(&tree.agg(i));
      }
      for (std::size_t i = 0; i < tree.core_count(); ++i) {
        out.push_back(&tree.core(i));
      }
      break;
    }
    case TopoKind::kInterDc: {
      auto& topo = static_cast<ComposedTopology&>(*topo_);
      const ComposedConfig config = InterDcConfigFor(spec_).topo;
      add_leaf_spine(static_cast<LeafSpine&>(topo.side(0)),
                     config.side_a.leaf_spine);
      add_leaf_spine(static_cast<LeafSpine&>(topo.side(1)),
                     config.side_b.leaf_spine);
      out.push_back(&topo.gateway(0));
      out.push_back(&topo.gateway(1));
      break;
    }
  }
  return out;
}

std::vector<SwitchNode*> Composition::ForwardingSample() {
  switch (spec_.topo) {
    case TopoKind::kDumbbell:
      return {&static_cast<Dumbbell&>(*topo_).switch_node()};
    case TopoKind::kFatTree: {
      auto& tree = static_cast<FatTree&>(*topo_);
      return {&tree.edge(0), &tree.agg(0), &tree.core(0)};
    }
    case TopoKind::kInterDc: {
      auto& topo = static_cast<ComposedTopology&>(*topo_);
      auto& side = static_cast<LeafSpine&>(topo.side(0));
      return {&side.leaf(0), &side.spine(0), &topo.gateway(0)};
    }
  }
  return {};
}

}  // namespace ecnsharp::perfbench

// Benchmark workloads: the generated run config, the untraced runner call,
// and the same simulation assembled from the public parts the runners use.
#ifndef ECNSHARP_PERFBENCH_WORKLOAD_H_
#define ECNSHARP_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/schemes.h"
#include "harness/session.h"
#include "net/switch_node.h"
#include "sketch/sketch_config.h"
#include "topo/topology.h"
#include "trace/trace_config.h"

namespace ecnsharp::perfbench {

enum class TopoKind { kDumbbell, kFatTree, kInterDc };

// One benchmark pass config, as written by run.py: the workload's shape
// and the seed of the pass's simulation.
struct RunSpec {
  std::string workload;
  TopoKind topo = TopoKind::kDumbbell;
  Scheme scheme = Scheme::kEcnSharp;
  double load = 0.5;
  std::size_t flows = 0;
  std::size_t fattree_k = 16;
  SketchConfig sketch;
  TraceConfig trace;
  std::uint64_t seed = 1;
};

// Parses the JSON config; on failure returns false with a message.
bool ParseRunSpec(const std::string& text, RunSpec* out, std::string* error);

// Maps the CLI scheme names the benchmark uses to the library enum.
bool SchemeFromName(const std::string& name, Scheme* out);

// The scheme parameters each runner applies (testbed values on the
// dumbbell, the §5.3 set on the large fabrics).
SchemeParams ParamsFor(const RunSpec& spec);

// Calls the public runner. When the workload carries the flight recorder
// or sketch telemetry, both exports are rendered in memory and their sizes
// returned through `export_bytes`.
ExperimentResult RunThroughRunner(const RunSpec& spec,
                                  std::size_t* export_bytes);

using DiscFactory = std::function<std::unique_ptr<QueueDisc>(BufferPolicy*)>;

// The runner's composition, split into the phases it runs through: session
// constructor, topology constructor, Bind, Start + Run, Result. Observers
// named by the spec are created by the session's Bind unless
// `external_observers` is set, in which case the caller creates and taps
// them (so that it can tee its own taps into the same slots).
class Composition {
 public:
  Composition(const RunSpec& spec, bool external_observers);
  ~Composition();
  Composition(const Composition&) = delete;
  Composition& operator=(const Composition&) = delete;

  void BuildTopology(const DiscFactory& factory);
  void Bind();
  void Run();
  ExperimentResult Result();

  ExperimentSession& session() { return *session_; }
  Topology& topo() { return *topo_; }
  // Every switch of the topology, in a fixed order.
  std::vector<SwitchNode*> Switches();
  // Up to three switches whose forwarding the replay times: for the
  // fat-tree an edge, an aggregation and a core switch.
  std::vector<SwitchNode*> ForwardingSample();

 private:
  struct InterDcTraffic;

  RunSpec spec_;
  // Declared before the topology: taps installed on topology ports must not
  // outlive the session's observers.
  std::unique_ptr<ExperimentSession> session_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<InterDcTraffic> interdc_;
};

}  // namespace ecnsharp::perfbench

#endif  // ECNSHARP_PERFBENCH_WORKLOAD_H_

#pragma once
// The benchmark's workloads and the single-thread layer replay they
// share. Each fills one Result; perfbench/README.md documents what each
// measures and why.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/request_stream.hpp"

namespace perfbench {

/// Set-up rounds per run of the large workloads: setup_s is their
/// median. The last round's service serves the timed phase.
inline constexpr int kSetupRounds = 3;

void run_serve_small(const Args& args, Result& r, Tracer& tracer);
void run_offline_large(const Args& args, Result& r, Tracer& tracer);
void run_prune_sweep(const Args& args, Result& r, Tracer& tracer);

/// One request shape replayed layer by layer on a single thread.
struct Shape {
  std::string pair;  // "<DS>-<model>"
  std::shared_ptr<const dynasparse::GnnModel> model;
  std::shared_ptr<const dynasparse::Dataset> dataset;
  dynasparse::EngineOptions options;
  bool execute = true;  // false: compile only (extra compile samples)
  /// Set for shapes that travel over the wire: the replay then also
  /// times the frame encoders and decoder.
  const dynasparse::StreamRequestSpec* spec = nullptr;
};

/// Calls each layer's public functions for every shape in turn on one
/// thread, a span around each, and reports the per-pair and per-layer
/// replay metrics, the attributed share and the unattributed remainder.
/// Replayed fingerprints are checked against `oracle` (same order as
/// `shapes`; 0 = no check).
void replay_shapes(const std::vector<Shape>& shapes,
                   const std::vector<std::uint64_t>& oracle, Tracer& tracer,
                   Result& r);

/// Median of `rounds` calls of `round` (each returns its own set-up
/// seconds).
template <typename F>
double median_setup_s(int rounds, F&& round) {
  std::vector<double> s;
  for (int i = 0; i < rounds; ++i) s.push_back(round(i));
  return median(s);
}

}  // namespace perfbench

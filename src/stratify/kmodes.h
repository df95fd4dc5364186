// compositeKModes sketch clustering (paper section III-C step 3).
//
// Standard KModes keeps one mode per attribute in each cluster center;
// over minhash sketches drawn from a huge universe almost every point
// then has *zero* matching attributes with every center and cannot be
// assigned. The composite variant (Wang et al., ICDE'13) keeps the L
// highest-frequency values per attribute, which makes a match — a point
// attribute equal to ANY of the center's L values — overwhelmingly more
// likely, while retaining KModes' convergence guarantee (the assignment
// objective is monotone under the update step).
#pragma once

#include <cstdint>
#include <vector>

#include "par/pool.h"
#include "sketch/minhash.h"

namespace hetsim::stratify {

struct KModesConfig {
  /// Number of strata (clusters).
  std::uint32_t num_strata = 16;
  /// Composite slots per attribute; L=1 degenerates to classic KModes.
  std::uint32_t composite_l = 3;
  std::uint32_t max_iterations = 20;
  std::uint64_t seed = 23;
  /// Fan-out for the assignment step (one run of points per pool lane)
  /// and for the sketch encoding, the point postings and the update step
  /// (one run of attributes per lane). Speed only: the result is
  /// identical for every pool size.
  par::Options par{};
};

struct Stratification {
  /// assignment[i] = stratum of record i.
  std::vector<std::uint32_t> assignment;
  std::uint32_t num_strata = 0;
  std::vector<std::size_t> stratum_sizes;
  /// Records whose sketch matched no center on any attribute in the final
  /// assignment pass (assigned by hash fallback). Key ablation metric.
  std::uint64_t zero_match_assignments = 0;
  std::uint32_t iterations = 0;
  /// Abstract work of clustering: candidate center values considered by
  /// the assignment step plus update-step scans. Deterministic for a
  /// given input/config (thread-count independent); comparable across
  /// runs, not across library versions.
  std::uint64_t work_ops = 0;
  /// Final per-point matched-attribute objective (sum over points).
  std::uint64_t objective = 0;
};

/// Run compositeKModes over sketches. `sketches` must be non-empty and
/// rectangular. If there are fewer points than strata, the stratum count
/// is reduced to the point count.
///
/// Tie-break contract: a point scoring equally against several centers
/// is assigned to the LOWEST center index (the assignment scan uses a
/// strict `score > best` over ascending center ids). Tests lock this in;
/// the parallel assignment step must preserve it because downstream
/// layouts, samples and migration plans all key off the assignment.
[[nodiscard]] Stratification composite_kmodes(
    const std::vector<sketch::Sketch>& sketches, const KModesConfig& config);

}  // namespace hetsim::stratify

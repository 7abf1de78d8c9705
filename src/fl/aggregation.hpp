// AggregationRule: the strategy that turns a cohort's updates into the
// next server-side model, plugged into every algorithm by name.
//
// Every rule has one form, the accumulator protocol: the round loop
// asks the rule for one StreamingAccumulator per fold lane, folds each
// decoded upload into its lane as it arrives, merges the lanes in lane
// order and calls finish(). How much a rule keeps is a property of its
// accumulator, not a second path through the round loops:
//   running sums — WeightedAverage, NormClippedMean and
//     StalenessDiscountedMix keep O(model) double sums per lane;
//   retained cohort — Krum, MultiKrum, CoordinateMedian and
//     TrimmedMean keep every folded update and run the batch math in
//     finish(). Lanes concatenate in lane order, which is cohort
//     order, and none of these rules depends on fold order, so the
//     result is the batch result bit for bit.
// AggregationRule::aggregate() is the same protocol over a cohort that
// is already materialized (one accumulator, folded in cohort order).
//
// Two families ship:
//   Averaging rules (folds_into_current() == false) — combine the
//     cohort's snapshots; `current` is at most a reference point:
//       WeightedAverage   — W' = sum_k (n_k / n) w_k over the cohort
//                           (FedAvg/FedProx semantics; ignores
//                           `current` and staleness).
//       CoordinateMedian  — entrywise median of the cohort.
//       TrimmedMean       — entrywise mean after dropping the
//                           floor(trim_fraction * n) largest and
//                           smallest values per coordinate.
//       NormClippedMean   — weighted average of deltas clipped to
//                           clip_norm in L2 against `current`.
//       Krum / MultiKrum  — distance-scored selection.
//   Delta/mixing rules (folds_into_current() == true) — the folds are
//     DELTAS and finish() returns `current` with them folded in:
//       StalenessDiscountedMix — W' = W + eta * sum_i u_i d_i /
//                           sum_i u_i, u_i = n_i * s(tau_i)
//                           (AsyncFedAvg/FedBuff semantics).
//
// Every accumulator refuses an empty or non-finite update and a bad
// weight at fold time, and an empty cohort or a zero total weight at
// finish, naming the client — under partial participation an
// all-offline sampled cohort must fail loudly, and a single NaN/Inf
// client update must never reach the global model.
//
// Rules are constructible by name through AggregationRegistry,
// parameterized by the declarative AggregationConfig that
// FLRunOptions/ExperimentConfig carry.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fl/parameters.hpp"

namespace fleda {

// One client's contribution to an aggregation step.
struct AggregationInput {
  // Full parameters for averaging rules; a delta against the dispatched
  // model for mixing rules. Never null.
  const ModelParameters* params = nullptr;
  double weight = 0.0;  // n_k, the client's sample count
  int staleness = 0;    // model versions behind the server; sync: 0
  // Federation-level client index, used only to name the culprit in
  // validation errors (a poisoned update should point at its sender).
  // Negative = unknown; errors then name the cohort position.
  int client = -1;
};

// Fixed fold-lane count of a round. Lanes — not thread-pool chunks —
// are the unit of parallel folding: the cohort is partitioned into
// kFoldLanes contiguous blocks, each lane folds its block serially in
// cohort order into its own accumulator, and the lanes are merged in
// lane order. Because the partition and both fold/merge orders are
// pure functions of the cohort (never of thread scheduling), results
// are bit-identical across thread-pool sizes. Round bodies train each
// member inside its lane, so the constant also caps a round's training
// parallelism: a cohort of n runs min(n, kFoldLanes) members at once,
// and only lanes that receive a fold allocate an accumulator.
inline constexpr std::size_t kFoldLanes = 64;

// Half-open lane boundaries over [0, n): lanes + 1 offsets with lane l
// covering [offsets[l], offsets[l + 1]). Pure function of (n, lanes) —
// the round's determinism rests on these bounds never depending on the
// thread pool.
std::vector<std::size_t> fold_lane_offsets(std::size_t n, std::size_t lanes);

// One partial aggregation: updates are folded in one at a time, sibling
// lanes are merged in lane order, and finish() emits the aggregated
// model. Obtained from AggregationRule::accumulator(); not thread-safe —
// each lane owns one, and merge()/finish() run on the coordinator after
// all folds complete. The mean family keeps O(model) running sums, so
// server memory for a round is O(lanes x model) at any cohort size; the
// rules that score the cohort as a whole retain their folds instead
// (see RetainingAccumulator in aggregation.cpp).
class StreamingAccumulator {
 public:
  virtual ~StreamingAccumulator() = default;

  // Folds one client's contribution. Throws std::invalid_argument on an
  // empty/NaN/Inf update, a negative or non-finite weight, or a
  // structure mismatch, naming `client` (negative = unknown).
  // `staleness` feeds mixing rules' discount; synchronous callers pass 0.
  virtual void fold(const ModelParameters& update, double weight,
                    int staleness, int client) = 0;

  // Hand-over form: a retaining accumulator keeps `update` without a
  // copy; the others fold it like the const& form and let it drop.
  virtual void fold(ModelParameters&& update, double weight, int staleness,
                    int client) {
    fold(static_cast<const ModelParameters&>(update), weight, staleness,
         client);
  }

  // Absorbs a sibling lane's partials (same rule). The
  // caller merges lanes in ascending lane order; `other` is left empty.
  virtual void merge(StreamingAccumulator& other) = 0;

  // Folds absorbed so far (own + merged) — lets callers skip finish()
  // for an empty group (e.g. a dead IFCA cluster) instead of tripping
  // the empty-cohort error.
  virtual std::size_t folds() const = 0;

  // The aggregated model. Throws std::invalid_argument on zero folds
  // or a zero/non-finite total weight. Call once, after all merges.
  virtual ModelParameters finish() = 0;
};

class AggregationRule;

// One accumulator per fold lane of a round (Channel::collect_streaming's
// `lane` picks one); finish() merges them in lane order. A lane's
// accumulator is created on its first access, from that lane's thread
// only, so a small cohort pays for the lanes it uses, not kFoldLanes.
class LaneAccumulators {
 public:
  LaneAccumulators(const AggregationRule& rule, const ModelParameters& current);

  StreamingAccumulator& operator[](std::size_t lane);
  // Merges every used lane into the first one (idempotent) and returns
  // it; an unused round yields an empty accumulator.
  StreamingAccumulator& merged();
  ModelParameters finish() { return merged().finish(); }

 private:
  const AggregationRule* rule_;
  const ModelParameters* current_;
  std::vector<std::unique_ptr<StreamingAccumulator>> lanes_;
};

class AggregationRule {
 public:
  virtual ~AggregationRule() = default;

  virtual std::string name() const = 0;

  // Whether the rule folds the cohort (as deltas) into `current`
  // (mixing rules) rather than combining the cohort's snapshots alone
  // (averaging rules). Event-driven servers use this to decide how to
  // apply a rule to their deltas.
  virtual bool folds_into_current() const { return false; }

  // A fresh partial accumulator for one fold lane. `current` is the
  // model being replaced (the delta/clipping reference; it must
  // outlive the accumulator — round loops keep the global model alive
  // across the round).
  virtual std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current) const = 0;

  // Combines a materialized cohort into the next model: one
  // accumulator, the cohort folded in order, then finish(). Throws
  // std::invalid_argument on an empty cohort, zero/non-finite total
  // weight, a null or non-finite update, or a structure mismatch; an
  // unlabeled input (client < 0) is named by its cohort position.
  ModelParameters aggregate(const ModelParameters& current,
                            const std::vector<AggregationInput>& cohort) const;
};

// Sample-count weighted FedAvg average (paper Eq. W^{r+1}): per-
// coordinate double running sums of w_k * w^k plus a scalar total
// weight; finish() scales by 1 / total. Doubles absorb the lane
// reassociation, so the result is exact to float rounding whatever the
// lane layout.
class WeightedAverage : public AggregationRule {
 public:
  std::string name() const override { return "weighted_average"; }
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current) const override;
};

// Entrywise (coordinate-wise) median over the cohort. Rank-based:
// sample-count weights are validated but do not influence the result,
// which is what makes a < 50% fraction of arbitrarily-corrupted
// clients unable to move any coordinate outside the honest range.
// The accumulator retains the cohort and takes the per-coordinate
// median in finish().
class CoordinateMedian : public AggregationRule {
 public:
  std::string name() const override { return "coordinate_median"; }
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current) const override;
};

// Entrywise trimmed mean: per coordinate, the g = floor(trim_fraction
// * n) smallest and largest values are dropped and the surviving
// n - 2g values averaged (unweighted, like the median — robustness
// comes from the rank filter, not the sample counts). Tolerates up to
// g corrupted clients per coordinate.
class TrimmedMean : public AggregationRule {
 public:
  // trim_fraction in [0, 0.5); 0 recovers the unweighted mean.
  explicit TrimmedMean(double trim_fraction);

  std::string name() const override { return "trimmed_mean"; }
  double trim_fraction() const { return trim_fraction_; }
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current) const override;

 private:
  double trim_fraction_;
};

// Weighted average of delta-clipped updates: each cohort member's
// delta against `current` is scaled down to at most clip_norm in L2
// before the sample-count weighted average, so no single client —
// however scaled its update — can pull the global model further than
// clip_norm in one round. The clip factor needs only the one update,
// so fold() applies it on the spot. Requires a non-empty `current`
// (the server's model) as the clipping reference.
class NormClippedMean : public AggregationRule {
 public:
  explicit NormClippedMean(double clip_norm);  // must be finite and > 0

  std::string name() const override { return "norm_clipped_mean"; }
  double clip_norm() const { return clip_norm_; }
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current) const override;

 private:
  double clip_norm_;
};

// Krum (Blanchard et al. 2017): distance-based selection. Each cohort
// member i is scored by the sum of its squared L2 distances to its
// n - f - 2 nearest neighbors; the member with the lowest score — the
// update sitting deepest inside the honest cluster — becomes the next
// model verbatim. Tolerates f Byzantine members but requires
// n >= 2f + 3 (checked at finish() with a descriptive error): with
// fewer honest neighbors the score is no longer Byzantine-resilient.
// Rank-based like the median: sample-count weights are validated but
// do not influence selection. Scoring needs the whole cohort, so the
// accumulator retains its folds.
class Krum : public AggregationRule {
 public:
  explicit Krum(int f);  // assumed Byzantine count, must be >= 0

  std::string name() const override { return "krum"; }
  int f() const { return f_; }
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current) const override;

 private:
  int f_;
};

// MultiKrum{f, m}: the unweighted average of the m lowest-Krum-score
// updates — smoother than single Krum (m honest votes instead of one)
// while still discarding the far-out m..n tail. m must satisfy
// 1 <= m <= n - f - 2; m == 0 selects that maximum automatically per
// cohort (keep everything Krum considers scoreable).
class MultiKrum : public Krum {
 public:
  MultiKrum(int f, int m);  // m >= 0; 0 = auto (n - f - 2 at finish)

  std::string name() const override { return "multi_krum"; }
  int m() const { return m_; }
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current) const override;

 private:
  int m_;
};

// Staleness discount s(tau) applied to buffered async updates.
enum class StalenessDiscount : std::uint8_t {
  // s(tau) = (1 + tau)^-exponent — FedBuff's polynomial discount.
  kPolynomial = 0,
  // s(0) = 1, s(tau >= 1) = constant_factor.
  kConstant = 1,
};

struct StalenessPolicy {
  StalenessDiscount discount = StalenessDiscount::kPolynomial;
  double poly_exponent = 1.0;    // kPolynomial
  double constant_factor = 0.3;  // kConstant

  // Discount weight for an update trained on a model `staleness`
  // versions behind the current one.
  double weight(int staleness) const;
};

// current + server_mix * (discounted weighted average of deltas). The
// folds are DELTAS: running sum of u_i * d_i with u_i = weight *
// s(staleness); finish() returns current + server_mix * sum / total_u.
class StalenessDiscountedMix : public AggregationRule {
 public:
  StalenessDiscountedMix(StalenessPolicy staleness, double server_mix);

  std::string name() const override { return "staleness_mix"; }
  bool folds_into_current() const override { return true; }
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current) const override;

 private:
  StalenessPolicy staleness_;
  double server_mix_;
};

// Declarative rule selection carried by FLRunOptions /
// ExperimentConfig: a registry key plus the knobs the built-in
// factories consult (bundled so registering a new rule never changes
// the factory signature).
struct AggregationConfig {
  // AggregationRegistry key. Empty = the algorithm's historical
  // default: WeightedAverage for the synchronous round loops,
  // StalenessDiscountedMix (from `staleness` and `server_mix` below)
  // for AsyncFedAvg.
  // Synchronous loops reject delta-mixing rules ("staleness_mix") —
  // their cohorts are full parameters, not deltas.
  std::string rule;
  double trim_fraction = 0.1;  // "trimmed_mean"
  double clip_norm = 10.0;     // "norm_clipped_mean"
  int krum_f = 1;              // "krum" / "multi_krum": Byzantine budget
  int krum_m = 0;              // "multi_krum": selected count; 0 = n-f-2
  // "staleness_mix" and AsyncFedAvg's empty-rule default. server_mix
  // is the rate eta on the discounted average delta; below 1.0 it
  // damps the cohort-to-cohort oscillation a small async buffer
  // induces. AsyncFedAvg also folds an averaging rule's consensus
  // delta in at server_mix, its folds weighted by the discount.
  StalenessPolicy staleness;
  double server_mix = 0.5;
};

// String-keyed factory map over aggregation rules, mirroring
// AlgorithmRegistry: downstream code registers robust-aggregation
// variants without touching src/, and configs select them by name.
class AggregationRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<AggregationRule>(const AggregationConfig&)>;

  // The process-wide registry, with the built-in rules
  // ("weighted_average", "coordinate_median", "trimmed_mean",
  // "norm_clipped_mean", "krum", "multi_krum", "staleness_mix")
  // registered on first use.
  static AggregationRegistry& global();

  // Registers `factory` under `name`. Throws std::invalid_argument on
  // an empty name or a duplicate registration.
  void add(std::string name, Factory factory);

  bool contains(std::string_view name) const;
  // All registered names, sorted.
  std::vector<std::string> names() const;

  // Instantiates the rule registered under `name`. Throws
  // std::invalid_argument on an unknown name, listing what is
  // registered.
  std::unique_ptr<AggregationRule> create(
      std::string_view name, const AggregationConfig& config = {}) const;

 private:
  std::map<std::string, Factory, std::less<>> factories_;
};

// The rule `config` names, from the global registry. Throws on an
// empty name — "use the algorithm default" is the caller's decision,
// not the registry's.
std::unique_ptr<AggregationRule> make_aggregation_rule(
    const AggregationConfig& config);

}  // namespace fleda

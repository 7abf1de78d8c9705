#include "fl/aggregation.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "tensor/sort_lanes.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// Fold-time guards, shared by every accumulator: bad *weights* (the
// participation layer's usual bug) and non-finite *values* (a poisoned
// or diverged client update) are caught before the value ever touches
// a partial sum or the retained cohort.
void check_fold(const char* rule, const ModelParameters& update, double weight,
                int client) {
  const std::string sender = client >= 0
                                 ? "client " + std::to_string(client)
                                 : std::string("a cohort update");
  if (update.empty()) {
    throw std::invalid_argument(std::string(rule) + ": empty update from " +
                                sender);
  }
  if (!(weight >= 0.0)) {  // negatives and NaNs both fail this
    throw std::invalid_argument(
        std::string(rule) + ": weight " + std::to_string(weight) + " from " +
        sender + " is negative or non-finite");
  }
  if (!std::isfinite(update.squared_l2_norm())) {
    static Counter& trips = MetricsRegistry::global().counter(
        "fleda.agg.nonfinite_guard_trips");
    trips.add(1);
    throw std::invalid_argument(
        std::string(rule) + ": " + sender +
        " sent a non-finite update (NaN/Inf parameter values) — "
        "refusing to fold it into the global model");
  }
}

void check_fold_structure(const char* rule, const ModelParameters& reference,
                          const ModelParameters& update, int client) {
  if (!reference.structurally_equal(update)) {
    const std::string sender = client >= 0
                                   ? "client " + std::to_string(client)
                                   : std::string("a cohort update");
    throw std::invalid_argument(std::string(rule) +
                                ": structure mismatch at " + sender);
  }
}

void check_finish_total(const char* rule, std::size_t folds, double total) {
  if (folds == 0) {
    throw std::invalid_argument(
        std::string(rule) +
        ": empty cohort — no client contributed this round (did the "
        "participation policy sample only offline clients?)");
  }
  if (!(total > 0.0) || !std::isfinite(total)) {
    throw std::invalid_argument(
        std::string(rule) + ": total weight " + std::to_string(total) +
        " over " + std::to_string(folds) +
        " clients — refusing to divide (would emit NaN parameters)");
  }
}

// Runs fn(begin, end) over one contiguous slice of [0, total) per pool
// thread. Every write inside fn targets its own slice, so the split
// parallelizes element-wise merge/finish work without affecting
// results; nested use (inside an outer parallel_for) degrades to the
// serial path via the pool's non-reentrancy.
void for_each_shard(std::size_t total,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t shards = ThreadPool::global().size();
  if (shards <= 1 || total < 4096) {
    fn(0, total);
    return;
  }
  parallel_for(shards, [&](std::size_t s_begin, std::size_t s_end) {
    for (std::size_t s = s_begin; s < s_end; ++s) {
      fn(total * s / shards, total * (s + 1) / shards);
    }
  });
}

// Per-entry double accumulation buffers shaped like a reference model.
// Folding in float updates at double precision keeps the running sum's
// error independent of the lane layout's reassociation.
struct DoubleSums {
  std::vector<std::vector<double>> acc;

  bool empty() const { return acc.empty(); }

  void init(const ModelParameters& shape) {
    acc.assign(shape.entries().size(), {});
    for (std::size_t e = 0; e < acc.size(); ++e) {
      acc[e].assign(
          static_cast<std::size_t>(shape.entries()[e].value.numel()), 0.0);
    }
  }

  // acc += scale * p
  void add_params(const ModelParameters& p, double scale) {
    for (std::size_t e = 0; e < acc.size(); ++e) {
      const float* src = p.entries()[e].value.data();
      double* dst = acc[e].data();
      const std::size_t n = acc[e].size();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] += scale * static_cast<double>(src[i]);
      }
    }
  }

  // acc += scale * (p - reference)
  void add_delta(const ModelParameters& p, const ModelParameters& reference,
                 double scale) {
    for (std::size_t e = 0; e < acc.size(); ++e) {
      const float* src = p.entries()[e].value.data();
      const float* ref = reference.entries()[e].value.data();
      double* dst = acc[e].data();
      const std::size_t n = acc[e].size();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] += scale * (static_cast<double>(src[i]) -
                           static_cast<double>(ref[i]));
      }
    }
  }

  // acc += other.acc, element-wise across shards.
  void add_sums(const DoubleSums& other) {
    for (std::size_t e = 0; e < acc.size(); ++e) {
      double* dst = acc[e].data();
      const double* src = other.acc[e].data();
      for_each_shard(acc[e].size(),
                     [dst, src](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         dst[i] += src[i];
                       }
                     });
    }
  }

  // result[e][i] = base (or base[e][i]) + acc[e][i] * scale, written
  // into a copy of `shape`.
  ModelParameters render(const ModelParameters& shape, double scale,
                         bool add_to_shape) const {
    ModelParameters result = shape;
    for (std::size_t e = 0; e < acc.size(); ++e) {
      float* out = result.mutable_entries()[e].value.data();
      const double* sums = acc[e].data();
      for_each_shard(
          acc[e].size(),
          [out, sums, scale, add_to_shape](std::size_t begin,
                                           std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              const double folded = sums[i] * scale;
              out[i] = static_cast<float>(
                  add_to_shape ? static_cast<double>(out[i]) + folded
                               : folded);
            }
          });
    }
    return result;
  }
};

// weighted_average: acc = sum w_k p_k, finish = acc / total.
class MeanStreamAccumulator final : public StreamingAccumulator {
 public:
  using StreamingAccumulator::fold;

  void fold(const ModelParameters& update, double weight, int /*staleness*/,
            int client) override {
    ProfileScope prof(phase::kAggregate);
    check_fold("WeightedAverage", update, weight, client);
    if (folds_ == 0) {
      shape_ = update;
      sums_.init(shape_);
    } else {
      check_fold_structure("WeightedAverage", shape_, update, client);
    }
    sums_.add_params(update, weight);
    total_ += weight;
    ++folds_;
  }

  void merge(StreamingAccumulator& other) override {
    ProfileScope prof(phase::kAggregate);
    auto* peer = dynamic_cast<MeanStreamAccumulator*>(&other);
    if (peer == nullptr) {
      throw std::invalid_argument(
          "WeightedAverage: merge with a different rule's accumulator");
    }
    if (peer->folds_ == 0) return;
    if (folds_ == 0) {
      shape_ = std::move(peer->shape_);
      sums_ = std::move(peer->sums_);
      total_ = peer->total_;
      folds_ = peer->folds_;
    } else {
      check_fold_structure("WeightedAverage", shape_, peer->shape_, -1);
      sums_.add_sums(peer->sums_);
      total_ += peer->total_;
      folds_ += peer->folds_;
    }
    *peer = MeanStreamAccumulator();
  }

  std::size_t folds() const override { return folds_; }

  ModelParameters finish() override {
    ProfileScope prof(phase::kAggregate);
    check_finish_total("WeightedAverage", folds_, total_);
    return sums_.render(shape_, 1.0 / total_, /*add_to_shape=*/false);
  }

 private:
  ModelParameters shape_;
  DoubleSums sums_;
  double total_ = 0.0;
  std::size_t folds_ = 0;
};

// norm_clipped_mean: acc = sum w_k clip_k (p_k - current),
// finish = current + acc / total. Holds `current` by reference.
class ClippedStreamAccumulator final : public StreamingAccumulator {
 public:
  using StreamingAccumulator::fold;

  ClippedStreamAccumulator(const ModelParameters& current, double clip_norm)
      : current_(&current), clip_norm_(clip_norm) {
    sums_.init(current);
  }

  void fold(const ModelParameters& update, double weight, int /*staleness*/,
            int client) override {
    ProfileScope prof(phase::kAggregate);
    check_fold("NormClippedMean", update, weight, client);
    check_fold_structure("NormClippedMean", *current_, update, client);
    // Pass 1: the delta's norm (needs only this one update — the reason
    // clipping streams while Krum's pairwise scoring cannot).
    double norm2 = 0.0;
    for (std::size_t e = 0; e < update.entries().size(); ++e) {
      const float* u = update.entries()[e].value.data();
      const float* c = current_->entries()[e].value.data();
      const std::size_t n =
          static_cast<std::size_t>(update.entries()[e].value.numel());
      for (std::size_t i = 0; i < n; ++i) {
        const double d =
            static_cast<double>(u[i]) - static_cast<double>(c[i]);
        norm2 += d * d;
      }
    }
    const double norm = std::sqrt(norm2);
    const double clip = norm > clip_norm_ ? clip_norm_ / norm : 1.0;
    sums_.add_delta(update, *current_, clip * weight);
    total_ += weight;
    ++folds_;
  }

  void merge(StreamingAccumulator& other) override {
    ProfileScope prof(phase::kAggregate);
    auto* peer = dynamic_cast<ClippedStreamAccumulator*>(&other);
    if (peer == nullptr) {
      throw std::invalid_argument(
          "NormClippedMean: merge with a different rule's accumulator");
    }
    if (peer->folds_ == 0) return;
    sums_.add_sums(peer->sums_);
    total_ += peer->total_;
    folds_ += peer->folds_;
    *peer = ClippedStreamAccumulator(*peer->current_, clip_norm_);
  }

  std::size_t folds() const override { return folds_; }

  ModelParameters finish() override {
    ProfileScope prof(phase::kAggregate);
    check_finish_total("NormClippedMean", folds_, total_);
    return sums_.render(*current_, 1.0 / total_, /*add_to_shape=*/true);
  }

 private:
  const ModelParameters* current_;
  double clip_norm_;
  DoubleSums sums_;
  double total_ = 0.0;
  std::size_t folds_ = 0;
};

// staleness_mix: folds are DELTAS; acc = sum u_i d_i with
// u_i = w_i s(tau_i), finish = current + server_mix * acc / total.
class MixStreamAccumulator final : public StreamingAccumulator {
 public:
  using StreamingAccumulator::fold;

  MixStreamAccumulator(const ModelParameters& current,
                       const StalenessPolicy& staleness, double server_mix)
      : current_(&current), staleness_(staleness), server_mix_(server_mix) {
    sums_.init(current);
  }

  void fold(const ModelParameters& update, double weight, int staleness,
            int client) override {
    ProfileScope prof(phase::kAggregate);
    check_fold("StalenessDiscountedMix", update, weight, client);
    check_fold_structure("StalenessDiscountedMix", *current_, update, client);
    const double u = weight * staleness_.weight(staleness);
    sums_.add_params(update, u);
    total_ += u;
    ++folds_;
  }

  void merge(StreamingAccumulator& other) override {
    ProfileScope prof(phase::kAggregate);
    auto* peer = dynamic_cast<MixStreamAccumulator*>(&other);
    if (peer == nullptr) {
      throw std::invalid_argument(
          "StalenessDiscountedMix: merge with a different rule's accumulator");
    }
    if (peer->folds_ == 0) return;
    sums_.add_sums(peer->sums_);
    total_ += peer->total_;
    folds_ += peer->folds_;
    *peer = MixStreamAccumulator(*peer->current_, staleness_, server_mix_);
  }

  std::size_t folds() const override { return folds_; }

  ModelParameters finish() override {
    ProfileScope prof(phase::kAggregate);
    check_finish_total("StalenessDiscountedMix", folds_, total_);
    return sums_.render(*current_, server_mix_ / total_,
                        /*add_to_shape=*/true);
  }

 private:
  const ModelParameters* current_;
  StalenessPolicy staleness_;
  double server_mix_;
  DoubleSums sums_;
  double total_ = 0.0;
  std::size_t folds_ = 0;
};

void require_current(const char* rule, const ModelParameters& current) {
  if (current.empty()) {
    throw std::invalid_argument(
        std::string(rule) +
        ": empty `current` — the accumulator anchors on the server's "
        "model (delta / clipping reference), so the caller must pass it");
  }
}

// Batch math of the rules that need the whole cohort. Each runs in
// RetainingAccumulator::finish() over a cohort the folds already
// validated (finite values, good weights, one structure).

// Runs reduce(sorted, lanes, out + i) for every block of kSortLanes
// coordinates i..i+lanes-1 of every entry, where lane l of `sorted`
// holds the cohort's sort keys of coordinate i + l in ascending order
// (tensor/sort_lanes.hpp; a short last block sorts stale finite keys in
// its spare lanes, and reduce writes only the first `lanes` outputs). Coordinates are
// independent, so for_each_shard splits them across the pool, each
// shard with its own block scratch, and the result is the same at every
// pool size. The folds rejected non-finite values, which is the
// network's precondition.
template <class Reduce>
ModelParameters reduce_sorted_columns(
    const std::vector<AggregationInput>& cohort, const Reduce& reduce) {
  const std::size_t n = cohort.size();
  const SortNetwork net(n);
  ModelParameters result = *cohort[0].params;
  std::vector<const float*> sources(n);
  for (std::size_t e = 0; e < result.entries().size(); ++e) {
    float* out = result.mutable_entries()[e].value.data();
    for (std::size_t c = 0; c < n; ++c) {
      sources[c] = cohort[c].params->entries()[e].value.data();
    }
    const std::size_t numel =
        static_cast<std::size_t>(result.entries()[e].value.numel());
    for_each_shard(numel, [&](std::size_t begin, std::size_t end) {
      std::vector<std::int32_t> storage;
      std::int32_t* block = aligned_block(storage, n);
      for (std::size_t i = begin; i < end; i += kSortLanes) {
        const std::size_t lanes = std::min(kSortLanes, end - i);
        // The gather reads n streams at once, more than the hardware
        // prefetcher follows; fetch a few blocks ahead.
        const std::size_t ahead = i + 4 * kSortLanes;
        for (std::size_t c = 0; c < n; ++c) {
          std::int32_t* row = block + c * kSortLanes;
          const float* src = sources[c] + i;
          if (ahead < numel) __builtin_prefetch(sources[c] + ahead);
          for (std::size_t l = 0; l < lanes; ++l) row[l] = sort_key(src[l]);
        }
        sort_lanes(net, block);
        reduce(block, lanes, out + i);
      }
    });
  }
  return result;
}

ModelParameters median_of(const std::vector<AggregationInput>& cohort) {
  // The k-th order statistic in the total order is a value of the
  // multiset (ties of -0 and +0 included), so the result does not
  // depend on the cohort's order — determinism across participation
  // shuffles comes for free.
  const std::size_t n = cohort.size();
  const std::size_t mid = n / 2;
  return reduce_sorted_columns(
      cohort, [n, mid](const std::int32_t* sorted, std::size_t lanes,
                       float* out) {
        const std::int32_t* hi = sorted + mid * kSortLanes;
        if (n % 2 == 1) {
          for (std::size_t l = 0; l < lanes; ++l) out[l] = from_sort_key(hi[l]);
          return;
        }
        const std::int32_t* lo = hi - kSortLanes;
        for (std::size_t l = 0; l < lanes; ++l) {
          const double sum = static_cast<double>(from_sort_key(lo[l])) +
                             static_cast<double>(from_sort_key(hi[l]));
          out[l] = static_cast<float>(sum / 2.0);
        }
      });
}

ModelParameters trimmed_mean_of(const std::vector<AggregationInput>& cohort,
                                double trim_fraction) {
  const std::size_t n = cohort.size();
  // trim_fraction < 0.5 guarantees n - 2g >= 1 survivors.
  const std::size_t g =
      static_cast<std::size_t>(trim_fraction * static_cast<double>(n));
  return reduce_sorted_columns(
      cohort,
      [n, g](const std::int32_t* sorted, std::size_t lanes, float* out) {
        // Each lane sums its survivors in ascending order, in double.
        double acc[kSortLanes] = {};
        for (std::size_t c = g; c < n - g; ++c) {
          const std::int32_t* row = sorted + c * kSortLanes;
          for (std::size_t l = 0; l < kSortLanes; ++l) {
            acc[l] += static_cast<double>(from_sort_key(row[l]));
          }
        }
        for (std::size_t l = 0; l < lanes; ++l) {
          out[l] = static_cast<float>(acc[l] / static_cast<double>(n - 2 * g));
        }
      });
}

// Cohort indices ordered ascending by (Krum score, index); callers
// take the first m. Enforces n >= 2f + 3; `rule` labels the error.
std::vector<std::size_t> krum_order(const std::vector<AggregationInput>& cohort,
                                    int f, const char* rule) {
  const std::size_t n = cohort.size();
  const std::size_t needed = 2 * static_cast<std::size_t>(f) + 3;
  if (n < needed) {
    throw std::invalid_argument(
        std::string(rule) + ": cohort of " + std::to_string(n) +
        " cannot tolerate f=" + std::to_string(f) +
        " Byzantine members — Krum scoring needs n >= 2f + 3 = " +
        std::to_string(needed) +
        " (sample a larger cohort or lower krum_f)");
  }
  // Pairwise squared distances, each pair computed once. n is a cohort
  // (tens), not the fleet, so the O(n^2) pass over full snapshots is
  // the aggregation cost, not a scaling wall.
  std::vector<double> dist(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = cohort[i].params->squared_l2_distance(*cohort[j].params);
      dist[i * n + j] = d;
      dist[j * n + i] = d;
    }
  }
  // score_i = sum of the n - f - 2 smallest distances to OTHERS.
  const std::size_t neighbors = n - static_cast<std::size_t>(f) - 2;
  std::vector<double> score(n, 0.0);
  std::vector<double> row(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t m = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) row[m++] = dist[i * n + j];
    }
    std::nth_element(row.begin(),
                     row.begin() + static_cast<std::ptrdiff_t>(neighbors - 1),
                     row.end());
    double acc = 0.0;
    for (std::size_t c = 0; c < neighbors; ++c) acc += row[c];
    score[i] = acc;
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  // Ties break on the lower cohort index — selection is a pure
  // function of the multiset of updates plus their order, never of
  // thread scheduling.
  std::sort(order.begin(), order.end(),
            [&score](std::size_t a, std::size_t b) {
              if (score[a] != score[b]) return score[a] < score[b];
              return a < b;
            });
  return order;
}

// Keeps every folded update (handed over, or copied from a const&
// fold) and runs a rule's batch math over them in finish(). Lanes are
// contiguous cohort blocks merged in lane order, so the batch sees the
// cohort in cohort order — exactly the materialized cohort.
class RetainingAccumulator final : public StreamingAccumulator {
 public:
  using Batch =
      std::function<ModelParameters(const std::vector<AggregationInput>&)>;

  RetainingAccumulator(const char* rule, Batch batch)
      : rule_(rule), batch_(std::move(batch)) {}

  void fold(const ModelParameters& update, double weight, int staleness,
            int client) override {
    fold(ModelParameters(update), weight, staleness, client);
  }

  void fold(ModelParameters&& update, double weight, int staleness,
            int client) override {
    ProfileScope prof(phase::kAggregate);
    check_fold(rule_, update, weight, client);
    if (!kept_.empty()) {
      check_fold_structure(rule_, kept_.front().update, update, client);
    }
    kept_.push_back({std::move(update), weight, staleness, client});
  }

  void merge(StreamingAccumulator& other) override {
    auto* peer = dynamic_cast<RetainingAccumulator*>(&other);
    if (peer == nullptr || std::string(peer->rule_) != rule_) {
      throw std::invalid_argument(
          std::string(rule_) + ": merge with a different rule's accumulator");
    }
    if (peer->kept_.empty()) return;
    if (!kept_.empty()) {
      check_fold_structure(rule_, kept_.front().update,
                           peer->kept_.front().update,
                           peer->kept_.front().client);
    }
    for (Kept& k : peer->kept_) kept_.push_back(std::move(k));
    peer->kept_.clear();
  }

  std::size_t folds() const override { return kept_.size(); }

  ModelParameters finish() override {
    ProfileScope prof(phase::kAggregate);
    double total = 0.0;
    std::vector<AggregationInput> cohort;
    cohort.reserve(kept_.size());
    for (const Kept& k : kept_) {
      total += k.weight;
      cohort.push_back({&k.update, k.weight, k.staleness, k.client});
    }
    check_finish_total(rule_, kept_.size(), total);
    return batch_(cohort);
  }

 private:
  struct Kept {
    ModelParameters update;
    double weight;
    int staleness;
    int client;
  };
  const char* rule_;
  Batch batch_;
  std::vector<Kept> kept_;
};

}  // namespace

std::vector<std::size_t> fold_lane_offsets(std::size_t n, std::size_t lanes) {
  if (lanes == 0) lanes = 1;
  std::vector<std::size_t> offsets(lanes + 1);
  for (std::size_t l = 0; l <= lanes; ++l) offsets[l] = n * l / lanes;
  return offsets;
}

LaneAccumulators::LaneAccumulators(const AggregationRule& rule,
                                   const ModelParameters& current)
    : rule_(&rule), current_(&current), lanes_(kFoldLanes) {}

StreamingAccumulator& LaneAccumulators::operator[](std::size_t lane) {
  std::unique_ptr<StreamingAccumulator>& slot = lanes_.at(lane);
  if (!slot) slot = rule_->accumulator(*current_);
  return *slot;
}

StreamingAccumulator& LaneAccumulators::merged() {
  // Lane order is the merge order — part of the deterministic contract.
  StreamingAccumulator* first = nullptr;
  for (const std::unique_ptr<StreamingAccumulator>& lane : lanes_) {
    if (!lane) continue;
    if (first == nullptr) {
      first = lane.get();
    } else {
      first->merge(*lane);
    }
  }
  return first != nullptr ? *first : (*this)[0];
}

ModelParameters AggregationRule::aggregate(
    const ModelParameters& current,
    const std::vector<AggregationInput>& cohort) const {
  const std::unique_ptr<StreamingAccumulator> acc =
      accumulator(current);
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    const AggregationInput& in = cohort[i];
    const std::string position = "cohort update #" + std::to_string(i);
    if (in.params == nullptr) {
      throw std::invalid_argument(name() + ": null update from " + position);
    }
    try {
      acc->fold(*in.params, in.weight, in.staleness, in.client);
    } catch (const std::invalid_argument& e) {
      // An unlabeled input is named by its cohort position instead.
      if (in.client >= 0) throw;
      throw std::invalid_argument(std::string(e.what()) + " (" + position +
                                  ")");
    }
  }
  return acc->finish();
}

std::unique_ptr<StreamingAccumulator> WeightedAverage::accumulator(
    const ModelParameters& /*current*/) const {
  return std::make_unique<MeanStreamAccumulator>();
}

std::unique_ptr<StreamingAccumulator> CoordinateMedian::accumulator(
    const ModelParameters& /*current*/) const {
  return std::make_unique<RetainingAccumulator>("CoordinateMedian",
                                                median_of);
}

TrimmedMean::TrimmedMean(double trim_fraction)
    : trim_fraction_(trim_fraction) {
  if (!(trim_fraction >= 0.0) || trim_fraction >= 0.5) {
    throw std::invalid_argument(
        "TrimmedMean: trim_fraction " + std::to_string(trim_fraction) +
        " outside [0, 0.5) — trimming half or more from each end leaves "
        "nothing to average");
  }
}

std::unique_ptr<StreamingAccumulator> TrimmedMean::accumulator(
    const ModelParameters& /*current*/) const {
  const double trim = trim_fraction_;
  return std::make_unique<RetainingAccumulator>(
      "TrimmedMean", [trim](const std::vector<AggregationInput>& cohort) {
        return trimmed_mean_of(cohort, trim);
      });
}

NormClippedMean::NormClippedMean(double clip_norm) : clip_norm_(clip_norm) {
  if (!std::isfinite(clip_norm) || clip_norm <= 0.0) {
    throw std::invalid_argument("NormClippedMean: clip_norm " +
                                std::to_string(clip_norm) +
                                " must be finite and > 0");
  }
}

std::unique_ptr<StreamingAccumulator> NormClippedMean::accumulator(
    const ModelParameters& current) const {
  require_current("NormClippedMean", current);
  return std::make_unique<ClippedStreamAccumulator>(current, clip_norm_);
}

Krum::Krum(int f) : f_(f) {
  if (f < 0) {
    throw std::invalid_argument("Krum: f " + std::to_string(f) +
                                " must be >= 0");
  }
}

std::unique_ptr<StreamingAccumulator> Krum::accumulator(
    const ModelParameters& /*current*/) const {
  const int f = f_;
  return std::make_unique<RetainingAccumulator>(
      "Krum", [f](const std::vector<AggregationInput>& cohort) {
        return *cohort[krum_order(cohort, f, "Krum").front()].params;
      });
}

MultiKrum::MultiKrum(int f, int m) : Krum(f), m_(m) {
  if (m < 0) {
    throw std::invalid_argument("MultiKrum: m " + std::to_string(m) +
                                " must be >= 0 (0 = auto n - f - 2)");
  }
}

std::unique_ptr<StreamingAccumulator> MultiKrum::accumulator(
    const ModelParameters& /*current*/) const {
  const int f = this->f();
  const int m_knob = m_;
  return std::make_unique<RetainingAccumulator>(
      "MultiKrum", [f, m_knob](const std::vector<AggregationInput>& cohort) {
        const std::vector<std::size_t> order =
            krum_order(cohort, f, "MultiKrum");
        const std::size_t n = cohort.size();
        const std::size_t max_m = n - static_cast<std::size_t>(f) - 2;
        const std::size_t m =
            m_knob == 0 ? max_m : static_cast<std::size_t>(m_knob);
        if (m > max_m) {
          throw std::invalid_argument(
              "MultiKrum: m=" + std::to_string(m) + " exceeds n - f - 2 = " +
              std::to_string(max_m) + " for a cohort of " + std::to_string(n) +
              " — the tail beyond that has no Byzantine-resilient score");
        }
        // Unweighted average of the m best-scored updates (rank-based
        // family: robustness comes from the selection, not the sample
        // counts).
        ModelParameters result = *cohort[order[0]].params;
        result.scale(1.0 / static_cast<double>(m));
        for (std::size_t c = 1; c < m; ++c) {
          result.add_scaled(*cohort[order[c]].params,
                            1.0 / static_cast<double>(m));
        }
        return result;
      });
}

double StalenessPolicy::weight(int staleness) const {
  if (staleness <= 0) return 1.0;
  switch (discount) {
    case StalenessDiscount::kPolynomial:
      return std::pow(1.0 + static_cast<double>(staleness), -poly_exponent);
    case StalenessDiscount::kConstant:
      return constant_factor;
  }
  return 1.0;
}

StalenessDiscountedMix::StalenessDiscountedMix(StalenessPolicy staleness,
                                               double server_mix)
    : staleness_(staleness), server_mix_(server_mix) {
  if (server_mix_ <= 0.0) {
    throw std::invalid_argument("StalenessDiscountedMix: server_mix <= 0");
  }
  if (staleness_.poly_exponent < 0.0 || staleness_.constant_factor <= 0.0) {
    throw std::invalid_argument(
        "StalenessDiscountedMix: discount must be positive");
  }
}

std::unique_ptr<StreamingAccumulator> StalenessDiscountedMix::accumulator(
    const ModelParameters& current) const {
  require_current("StalenessDiscountedMix", current);
  return std::make_unique<MixStreamAccumulator>(current, staleness_,
                                                server_mix_);
}

namespace {

void register_builtin_rules(AggregationRegistry& registry) {
  registry.add("weighted_average", [](const AggregationConfig&) {
    return std::make_unique<WeightedAverage>();
  });
  registry.add("coordinate_median", [](const AggregationConfig&) {
    return std::make_unique<CoordinateMedian>();
  });
  registry.add("trimmed_mean", [](const AggregationConfig& c) {
    return std::make_unique<TrimmedMean>(c.trim_fraction);
  });
  registry.add("norm_clipped_mean", [](const AggregationConfig& c) {
    return std::make_unique<NormClippedMean>(c.clip_norm);
  });
  registry.add("krum", [](const AggregationConfig& c) {
    return std::make_unique<Krum>(c.krum_f);
  });
  registry.add("multi_krum", [](const AggregationConfig& c) {
    return std::make_unique<MultiKrum>(c.krum_f, c.krum_m);
  });
  registry.add("staleness_mix", [](const AggregationConfig& c) {
    return std::make_unique<StalenessDiscountedMix>(c.staleness,
                                                    c.server_mix);
  });
}

}  // namespace

AggregationRegistry& AggregationRegistry::global() {
  static AggregationRegistry* registry = [] {
    auto* r = new AggregationRegistry();
    register_builtin_rules(*r);
    return r;
  }();
  return *registry;
}

void AggregationRegistry::add(std::string name, Factory factory) {
  if (name.empty()) {
    throw std::invalid_argument("AggregationRegistry::add: empty name");
  }
  if (!factory) {
    throw std::invalid_argument(
        "AggregationRegistry::add: null factory for '" + name + "'");
  }
  if (!factories_.emplace(std::move(name), std::move(factory)).second) {
    throw std::invalid_argument(
        "AggregationRegistry::add: duplicate registration");
  }
}

bool AggregationRegistry::contains(std::string_view name) const {
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> AggregationRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::unique_ptr<AggregationRule> AggregationRegistry::create(
    std::string_view name, const AggregationConfig& config) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("AggregationRegistry: unknown rule '" +
                                std::string(name) + "' (registered: " + known +
                                ")");
  }
  return it->second(config);
}

std::unique_ptr<AggregationRule> make_aggregation_rule(
    const AggregationConfig& config) {
  if (config.rule.empty()) {
    throw std::invalid_argument(
        "make_aggregation_rule: empty rule name — the algorithm default is "
        "chosen by the caller, not the registry");
  }
  return AggregationRegistry::global().create(config.rule, config);
}

}  // namespace fleda

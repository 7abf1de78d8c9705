#include "comm/channel.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace fleda {

double ChannelStats::uplink_compression() const {
  return uplink_bytes > 0
             ? static_cast<double>(raw_uplink_bytes) /
                   static_cast<double>(uplink_bytes)
             : 1.0;
}

double ChannelStats::downlink_compression() const {
  return downlink_bytes > 0
             ? static_cast<double>(raw_downlink_bytes) /
                   static_cast<double>(downlink_bytes)
             : 1.0;
}

Channel::Channel(const CommConfig& config)
    : config_(config),
      uplink_codec_(make_codec(config.uplink, config.topk_fraction)),
      downlink_codec_(make_codec(config.downlink, config.topk_fraction)),
      downlink_delta_(config.downlink == CodecKind::kTopKDelta) {
  if (config.uplink_bytes_per_sec <= 0.0 ||
      config.downlink_bytes_per_sec <= 0.0) {
    throw std::invalid_argument("Channel: bandwidth must be > 0");
  }
}

void Channel::set_links(std::vector<ClientLink> links) {
  // Non-positive rates / negative latencies are the documented
  // "inherit the CommConfig default" sentinels; with_defaults
  // normalizes them wherever a link is actually used.
  links_ = std::move(links);
}

ClientLink ClientLink::with_defaults(const CommConfig& config) const {
  ClientLink l = *this;
  if (l.uplink_bytes_per_sec <= 0.0) {
    l.uplink_bytes_per_sec = config.uplink_bytes_per_sec;
  }
  if (l.downlink_bytes_per_sec <= 0.0) {
    l.downlink_bytes_per_sec = config.downlink_bytes_per_sec;
  }
  if (l.per_message_latency_s < 0.0) {
    l.per_message_latency_s = config.per_message_latency_s;
  }
  return l;
}

ClientLink Channel::link(std::size_t k) const {
  return (k < links_.size() ? links_[k] : ClientLink{})
      .with_defaults(config_);
}

void Channel::ensure_clients(std::size_t n) {
  if (traffic_.size() < n) traffic_.resize(n);
  if (residuals_.size() < n) residuals_.resize(n);
  if (downlink_refs_.size() < n) downlink_refs_.resize(n);
}

void Channel::bill_downlink(std::size_t client, std::uint64_t bytes,
                            std::uint64_t raw_bytes) {
  static Counter& billed =
      MetricsRegistry::global().counter("fleda.comm.downlink_bytes");
  billed.add(bytes);
  stats_.downlink_bytes += bytes;
  stats_.raw_downlink_bytes += raw_bytes;
  stats_.downlink_messages += 1;
  current_round_.downlink_bytes += bytes;
  current_round_.downlink_messages += 1;
  traffic_[client].downlink_bytes += bytes;
  traffic_[client].downlink_messages += 1;
}

void Channel::bill_uplink(std::size_t client, std::uint64_t bytes,
                          std::uint64_t raw_bytes) {
  static Counter& billed =
      MetricsRegistry::global().counter("fleda.comm.uplink_bytes");
  billed.add(bytes);
  stats_.uplink_bytes += bytes;
  stats_.raw_uplink_bytes += raw_bytes;
  stats_.uplink_messages += 1;
  current_round_.uplink_bytes += bytes;
  current_round_.uplink_messages += 1;
  traffic_[client].uplink_bytes += bytes;
  traffic_[client].uplink_messages += 1;
}

std::vector<std::shared_ptr<const ModelParameters>> Channel::broadcast(
    const std::vector<const ModelParameters*>& deployed) {
  std::vector<std::size_t> recipients(deployed.size());
  for (std::size_t k = 0; k < recipients.size(); ++k) recipients[k] = k;
  return broadcast(deployed, recipients);
}

std::vector<std::shared_ptr<const ModelParameters>> Channel::broadcast(
    const std::vector<const ModelParameters*>& deployed,
    const std::vector<std::size_t>& recipients) {
  if (deployed.size() != recipients.size()) {
    throw std::invalid_argument(
        "Channel::broadcast: " + std::to_string(deployed.size()) +
        " snapshots vs " + std::to_string(recipients.size()) + " recipients");
  }
  std::size_t max_client = 0;
  for (std::size_t k : recipients) max_client = std::max(max_client, k + 1);
  ensure_clients(max_client);
  // Encode (and decode) each distinct (snapshot, delta-reference) pair
  // once; identical pairs mean the same broadcast payload, and all
  // their recipients share the one decoded copy. A snapshot is keyed
  // by its entry storage, not its address: handles copied from one
  // model share that storage (ModelParameters holds nothing else), so
  // K deployments of one model encode once. Without a delta downlink
  // the reference is always null, so this degenerates to distinct
  // snapshots. Distinct payloads go through the codec in parallel,
  // mirroring collect().
  using PayloadKey = std::pair<const void*, const ModelParameters*>;
  std::vector<std::pair<const ModelParameters*, const ModelParameters*>>
      distinct;
  std::map<PayloadKey, std::size_t> index;
  std::vector<std::size_t> payload_of(deployed.size());
  for (std::size_t i = 0; i < deployed.size(); ++i) {
    if (deployed[i] == nullptr) {
      throw std::invalid_argument("broadcast: null snapshot");
    }
    const ModelParameters* reference =
        downlink_delta_ ? downlink_refs_[recipients[i]].get() : nullptr;
    const PayloadKey key{&deployed[i]->entries(), reference};
    const auto [it, inserted] = index.emplace(key, distinct.size());
    if (inserted) distinct.emplace_back(deployed[i], reference);
    payload_of[i] = it->second;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sizes(distinct.size());
  std::vector<std::shared_ptr<const ModelParameters>> decoded(distinct.size());
  parallel_for(distinct.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [snapshot, reference] = distinct[i];
      ByteBuffer blob;
      {
        ProfileScope enc(phase::kCodecEncode);
        blob = downlink_codec_->encode(*snapshot, reference);
      }
      sizes[i] = {blob.size(), raw_wire_bytes(*snapshot)};
      ProfileScope dec(phase::kCodecDecode);
      decoded[i] = std::make_shared<const ModelParameters>(
          downlink_codec_->decode(blob, reference));
    }
  });
  std::vector<std::shared_ptr<const ModelParameters>> received;
  received.reserve(deployed.size());
  for (std::size_t i = 0; i < deployed.size(); ++i) {
    const auto& [bytes, raw] = sizes[payload_of[i]];
    bill_downlink(recipients[i], bytes, raw);
    received.push_back(decoded[payload_of[i]]);
    // Both sides now hold the decoded snapshot: it becomes client
    // recipients[i]'s reference for the next delta downlink.
    if (downlink_delta_) downlink_refs_[recipients[i]] = decoded[payload_of[i]];
  }
  return received;
}

ModelParameters Channel::uplink_roundtrip(std::size_t client,
                                          const ModelParameters& update,
                                          const ModelParameters* reference,
                                          std::uint64_t* bytes,
                                          std::uint64_t* raw_bytes) {
  const bool feedback = config_.error_feedback && uplink_codec_->lossy();
  // Error feedback: transmit update + residual, then keep what the
  // codec dropped this round for the next one.
  const ModelParameters* to_send = &update;
  ModelParameters compensated;
  if (feedback && !residuals_[client].empty() &&
      residuals_[client].structurally_equal(update)) {
    compensated = update;
    compensated.add_scaled(residuals_[client], 1.0);
    to_send = &compensated;
  }
  ByteBuffer blob;
  ModelParameters decoded;
  // A codec error names the sender: the encode runs client-side, the
  // decode parses bytes the server did not produce.
  const auto from_sender = [client](const std::exception& e) {
    return "Channel: upload from client " + std::to_string(client) + ": " +
           e.what();
  };
  try {
    {
      ProfileScope enc(phase::kCodecEncode);
      blob = uplink_codec_->encode(*to_send, reference);
    }
    ProfileScope dec(phase::kCodecDecode);
    decoded = uplink_codec_->decode(blob, reference);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(from_sender(e));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(from_sender(e));
  }
  *bytes = blob.size();
  *raw_bytes = raw_wire_bytes(update);
  if (feedback) {
    ModelParameters residual = *to_send;
    residual.add_scaled(decoded, -1.0);
    residuals_[client] = std::move(residual);
  }
  return decoded;
}

std::vector<ModelParameters> Channel::collect(
    const std::vector<ModelParameters>& updates,
    const std::vector<const ModelParameters*>& references) {
  std::vector<std::size_t> senders(updates.size());
  for (std::size_t k = 0; k < senders.size(); ++k) senders[k] = k;
  return collect(updates, references, senders);
}

std::vector<ModelParameters> Channel::collect(
    const std::vector<ModelParameters>& updates,
    const std::vector<const ModelParameters*>& references,
    const std::vector<std::size_t>& senders) {
  if (updates.size() != references.size() ||
      updates.size() != senders.size()) {
    throw std::invalid_argument(
        "Channel::collect: " + std::to_string(updates.size()) +
        " updates vs " + std::to_string(references.size()) +
        " references vs " + std::to_string(senders.size()) + " senders");
  }
  const std::size_t n = updates.size();
  std::size_t max_client = 0;
  for (std::size_t k : senders) max_client = std::max(max_client, k + 1);
  ensure_clients(max_client);
  std::vector<ModelParameters> received(n);
  std::vector<std::uint64_t> bytes(n, 0), raw(n, 0);
  // Encode client-side and decode server-side per update; the pool
  // parallelizes across clients (distinct sender indices touch
  // distinct residual slots, so the error-feedback state is safe; the
  // stats are reduced serially below).
  // Pool tasks must not throw; a codec error is captured per update
  // and the earliest in cohort order rethrown once all settle.
  std::vector<std::exception_ptr> errors(n);
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        received[i] = uplink_roundtrip(senders[i], updates[i], references[i],
                                       &bytes[i], &raw[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (std::size_t i = 0; i < n; ++i) bill_uplink(senders[i], bytes[i], raw[i]);
  return received;
}

void Channel::collect_streaming(
    const std::vector<std::size_t>& senders,
    const std::vector<const ModelParameters*>& references,
    const std::vector<std::size_t>& lane_offsets,
    const std::function<ModelParameters(std::size_t)>& produce,
    const std::function<void(std::size_t, std::size_t, ModelParameters&&)>&
        consume) {
  const std::size_t n = senders.size();
  if (references.size() != n) {
    throw std::invalid_argument(
        "Channel::collect_streaming: " + std::to_string(n) + " senders vs " +
        std::to_string(references.size()) + " references");
  }
  if (lane_offsets.size() < 2 || lane_offsets.front() != 0 ||
      lane_offsets.back() != n) {
    throw std::invalid_argument(
        "Channel::collect_streaming: lane_offsets must cover [0, " +
        std::to_string(n) + ") (use fold_lane_offsets)");
  }
  for (std::size_t l = 1; l < lane_offsets.size(); ++l) {
    if (lane_offsets[l] < lane_offsets[l - 1]) {
      throw std::invalid_argument(
          "Channel::collect_streaming: lane_offsets must be non-decreasing");
    }
  }
  std::size_t max_client = 0;
  for (std::size_t k : senders) max_client = std::max(max_client, k + 1);
  ensure_clients(max_client);
  const std::size_t lanes = lane_offsets.size() - 1;
  std::vector<std::uint64_t> bytes(n, 0), raw(n, 0);
  // Pool tasks must not throw; produce/consume legitimately can (fold
  // validation rejecting a poisoned update). Each lane captures its
  // first error and the earliest lane's is rethrown below — a stable
  // choice regardless of which lane faulted first in wall time.
  std::vector<std::exception_ptr> lane_error(lanes);
  parallel_for(lanes, [&](std::size_t lane_begin, std::size_t lane_end) {
    for (std::size_t l = lane_begin; l < lane_end; ++l) {
      try {
        for (std::size_t i = lane_offsets[l]; i < lane_offsets[l + 1]; ++i) {
          ModelParameters update = produce(i);
          ModelParameters decoded = uplink_roundtrip(
              senders[i], update, references[i], &bytes[i], &raw[i]);
          update = ModelParameters{};  // wire copy exists; free the raw one
          consume(l, i, std::move(decoded));
        }
      } catch (...) {
        lane_error[l] = std::current_exception();
      }
    }
  });
  for (std::size_t l = 0; l < lanes; ++l) {
    if (lane_error[l]) std::rethrow_exception(lane_error[l]);
  }
  for (std::size_t i = 0; i < n; ++i) bill_uplink(senders[i], bytes[i], raw[i]);
}

std::shared_ptr<const ModelParameters> Channel::send_down(
    std::size_t client, const ModelParameters& snapshot,
    std::uint64_t* bytes_out) {
  ensure_clients(client + 1);
  const ModelParameters* reference =
      downlink_delta_ ? downlink_refs_[client].get() : nullptr;
  ByteBuffer blob;
  {
    ProfileScope enc(phase::kCodecEncode);
    blob = downlink_codec_->encode(snapshot, reference);
  }
  bill_downlink(client, blob.size(), raw_wire_bytes(snapshot));
  if (bytes_out != nullptr) *bytes_out = blob.size();
  std::shared_ptr<const ModelParameters> decoded;
  {
    ProfileScope dec(phase::kCodecDecode);
    decoded = std::make_shared<const ModelParameters>(
        downlink_codec_->decode(blob, reference));
  }
  if (downlink_delta_) downlink_refs_[client] = decoded;
  return decoded;
}

ModelParameters Channel::send_up(std::size_t client,
                                 const ModelParameters& update,
                                 const ModelParameters* reference,
                                 std::uint64_t* bytes_out) {
  ensure_clients(client + 1);
  std::uint64_t bytes = 0, raw = 0;
  ModelParameters decoded =
      uplink_roundtrip(client, update, reference, &bytes, &raw);
  bill_uplink(client, bytes, raw);
  if (bytes_out != nullptr) *bytes_out = bytes;
  return decoded;
}

void Channel::end_round() {
  // Standalone latency model: every client's transfers are serial on
  // its own link, clients run in parallel — the round costs as much as
  // its slowest client's traffic.
  double slowest = 0.0;
  for (std::size_t k = 0; k < traffic_.size(); ++k) {
    const ClientRoundTraffic& t = traffic_[k];
    const ClientLink l = link(k);
    const double serial =
        static_cast<double>(t.downlink_messages + t.uplink_messages) *
            l.per_message_latency_s +
        static_cast<double>(t.downlink_bytes) / l.downlink_bytes_per_sec +
        static_cast<double>(t.uplink_bytes) / l.uplink_bytes_per_sec;
    slowest = std::max(slowest, serial);
  }
  end_round(slowest);
}

void Channel::end_round(double simulated_duration_s) {
  current_round_.round = static_cast<int>(stats_.rounds.size());
  current_round_.simulated_latency_s = simulated_duration_s;
  stats_.simulated_latency_s += current_round_.simulated_latency_s;
  stats_.rounds.push_back(current_round_);
  current_round_ = RoundCommStats{};
  std::fill(traffic_.begin(), traffic_.end(), ClientRoundTraffic{});
}

}  // namespace fleda

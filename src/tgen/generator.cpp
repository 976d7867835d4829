#include "tgen/generator.hpp"

#include "tgen/trace.hpp"

#include <cmath>
#include <stdexcept>

namespace metro::tgen {

using sim::Time;
using namespace metro::sim;  // time literals

FlowSet::FlowSet(std::size_t n_flows, std::uint64_t seed) {
  // Every lookup reduces flow_id modulo size(): an empty set would divide by 0.
  if (n_flows == 0) throw std::invalid_argument("FlowSet needs at least one flow");
  sim::Rng rng(seed);
  flows_.reserve(n_flows);
  for (std::size_t i = 0; i < n_flows; ++i) {
    Flow f;
    // RFC 5737 test networks as source space, 10/8 as destination space.
    f.tuple.src_ip = net::ipv4_addr(198, 18, 0, 0) + static_cast<std::uint32_t>(rng.uniform_u64(1 << 16));
    f.tuple.dst_ip = net::ipv4_addr(10, 0, 0, 0) + static_cast<std::uint32_t>(rng.uniform_u64(1 << 24));
    f.tuple.src_port = static_cast<std::uint16_t>(1024 + rng.uniform_u64(60000));
    f.tuple.dst_port = static_cast<std::uint16_t>(1024 + rng.uniform_u64(60000));
    f.tuple.protocol = net::kIpProtoUdp;
    f.rss = nic::rss_hash_ipv4(f.tuple.src_ip, f.tuple.dst_ip, f.tuple.src_port, f.tuple.dst_port);
    flows_.push_back(f);
  }
}

std::size_t Generator::next_batch(std::vector<nic::PacketDesc>& out, std::size_t max) {
  std::size_t n = 0;
  while (n < max) {
    auto pkt = next();
    if (!pkt.has_value()) break;
    out.push_back(*pkt);
    ++n;
  }
  return n;
}

double RampProfile::rate_at(Time t) const {
  if (t < 0 || t > total_) return 0.0;
  const Time half = total_ / 2;
  const auto step_index = [this](Time x) { return x / step_; };
  const long n_steps_half = step_index(half) + 1;
  const double increment = (peak_ - floor_) / static_cast<double>(n_steps_half);
  if (t <= half) {
    return floor_ + increment * static_cast<double>(step_index(t) + 1);
  }
  const long down = step_index(t - half);
  const double r = peak_ - increment * static_cast<double>(down + 1);
  return r < floor_ ? floor_ : r;
}

StreamGenerator::StreamGenerator(StreamConfig cfg, const FlowSet& flows,
                                 std::unique_ptr<FlowPicker> picker)
    : cfg_(cfg),
      flows_(flows),
      picker_(std::move(picker)),
      rng_(cfg.seed),
      t_(cfg.start),
      gap_(cfg.rate_pps > 0 ? static_cast<Time>(1e9 / cfg.rate_pps) : 0) {}

std::optional<nic::PacketDesc> StreamGenerator::next() {
  if (cfg_.rate_pps <= 0.0) return std::nullopt;
  if (t_ >= cfg_.start + cfg_.duration) return std::nullopt;
  nic::PacketDesc pkt;
  pkt.arrival = t_;
  pkt.flow_id = picker_->pick(rng_);
  pkt.rss_hash = flows_.rss_hash(pkt.flow_id);
  pkt.wire_size = cfg_.imix ? ImixSizes{}.next(rng_) : cfg_.wire_size;
  if (cfg_.poisson) {
    t_ += static_cast<Time>(rng_.exponential(static_cast<double>(gap_)));
  } else {
    t_ += gap_;
  }
  return pkt;
}

std::size_t StreamGenerator::next_batch(std::vector<nic::PacketDesc>& out, std::size_t max) {
  if (cfg_.rate_pps <= 0.0) return 0;
  const Time end = cfg_.start + cfg_.duration;
  // Hoist the loop-invariant state; write t_ back once. The draw sequence
  // per packet (pick, optional imix size, optional exponential gap) is
  // byte-identical to next()'s.
  Time t = t_;
  std::size_t n = 0;
  for (; n < max && t < end; ++n) {
    nic::PacketDesc pkt;
    pkt.arrival = t;
    pkt.flow_id = picker_->pick(rng_);
    pkt.rss_hash = flows_.rss_hash(pkt.flow_id);
    pkt.wire_size = cfg_.imix ? ImixSizes{}.next(rng_) : cfg_.wire_size;
    if (cfg_.poisson) {
      t += static_cast<Time>(rng_.exponential(static_cast<double>(gap_)));
    } else {
      t += gap_;
    }
    out.push_back(pkt);
  }
  t_ = t;
  return n;
}

ProfileGenerator::ProfileGenerator(const RateProfile& profile, Time duration,
                                   std::uint16_t wire_size, const FlowSet& flows,
                                   std::unique_ptr<FlowPicker> picker, std::uint64_t seed)
    : profile_(profile),
      duration_(duration),
      wire_size_(wire_size),
      flows_(flows),
      picker_(std::move(picker)),
      rng_(seed) {}

std::optional<nic::PacketDesc> ProfileGenerator::next() {
  while (t_ < duration_) {
    const double rate = profile_.rate_at(t_);
    if (rate <= 0.0) {
      t_ += 1_ms;
      continue;
    }
    nic::PacketDesc pkt;
    pkt.arrival = t_;
    pkt.flow_id = picker_->pick(rng_);
    pkt.rss_hash = flows_.rss_hash(pkt.flow_id);
    pkt.wire_size = wire_size_;
    t_ += static_cast<Time>(1e9 / rate);
    return pkt;
  }
  return std::nullopt;
}

}  // namespace metro::tgen

// Crypto substrate microbenchmark: the fast path (T-table AES with an
// AES-NI dispatch where the CPU has it, midstate HMAC-SHA1, burst ESP)
// against the scalar oracles it replaced. AES rows report three columns:
// the scalar oracle, the portable T-table path (Impl::kTables pinned), and
// the auto-dispatched path the ESP data path actually runs (AES-NI when
// available, else identical to the T-table column).
//
// Sections:
//   * AES-128 single block encrypt/decrypt (chained, so each block depends
//     on the last — no ILP flattery),
//   * AES-CBC-128 by payload size (encrypt serial per CBC's chain;
//     decrypt takes the 4-wide pipelined path),
//   * SHA-1 throughput and HMAC-SHA1-96 tag rate by message length
//     (midstate vs pad-rehashing baseline),
//   * full ESP encap+decap packets/s, single-call and burst-of-32.
//
// Every number is a median over repeated trials with the IQR alongside
// (untimed warm-up first); the report lands in BENCH_crypto.json through
// stats::JsonWriter. The CI regression gate is
// scripts/check_bench_regression.py comparing this report against the
// tracked BENCH_crypto.json baseline (median +/- IQR tolerances) — the
// speedups are gated against what the baseline actually recorded, not a
// hardcoded constant.
//
// Flags (strict parsing, unknown flag exits 2):
//   --fast                  fewer trials/iterations (CI smoke mode)
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/sha1.hpp"
#include "crypto_common.hpp"
#include "stats/json_writer.hpp"
#include "stats/table.hpp"

using namespace metro;
using bench::Trials;
using bench::cryptob::speedup;

namespace {

using bench::cryptob::cbc_loop;
using bench::cryptob::gateway_loop;
using bench::cryptob::hmac_loop;
using bench::cryptob::kBenchIv;
using bench::cryptob::kBenchKey;

/// Chained single-block loop: feed each output back as the next input so
/// consecutive blocks serialise (measures latency, not throughput).
template <typename Cipher, bool kDecrypt>
std::uint8_t block_loop(const Cipher& c, std::uint64_t iters) {
  std::uint8_t buf[16];
  std::memcpy(buf, kBenchIv.data(), 16);
  for (std::uint64_t i = 0; i < iters; ++i) {
    if constexpr (kDecrypt) {
      c.decrypt_block(buf, buf);
    } else {
      c.encrypt_block(buf, buf);
    }
  }
  return buf[0];
}

/// Burst-of-32 encap+decap; iters counts packets, rounded up to bursts.
template <typename Gateway>
std::uint8_t gateway_burst_loop(Gateway& egress, Gateway& ingress,
                                const std::vector<std::uint8_t>& inner, std::uint64_t iters) {
  constexpr std::size_t kBurst = 32;
  std::vector<net::Packet> pkts(kBurst);
  std::uint8_t csum = 0;
  for (std::uint64_t done = 0; done < iters; done += kBurst) {
    for (auto& p : pkts) p.assign(inner.data(), inner.size());
    egress.encap_burst(pkts);
    ingress.decap_burst(pkts);
    csum = static_cast<std::uint8_t>(csum ^ pkts[0].data()[0]);
  }
  return csum;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = bench::parse_fast(argc, argv);

  const int trials = fast ? 5 : 9;
  const std::uint64_t scale = fast ? 1 : 4;

  std::cout << "=== Crypto substrate microbench (fast vs scalar oracle) ===\n";
  std::cout << "trials=" << trials << " per row; medians with IQR; speedup = scalar/fast\n\n";

  const std::span<const std::uint8_t, 16> key(kBenchKey);
  const crypto::Aes128 fast_aes(key);
  const crypto::Aes128 tbl_aes(key, crypto::Aes128::Impl::kTables);
  const crypto::ScalarAes128 scalar_aes(key);
  const crypto::AesCbc fast_cbc(key);
  const crypto::AesCbc tbl_cbc(key, crypto::Aes128::Impl::kTables);
  const crypto::ScalarAesCbc scalar_cbc(key);
  const char* aes_impl = fast_aes.uses_hardware() ? "aesni" : "ttable";
  std::cout << "auto-dispatched AES implementation: " << aes_impl << "\n\n";

  // --- AES single block ----------------------------------------------------
  const std::uint64_t block_iters = 100'000 * scale;
  const Trials enc_fast = bench::cryptob::time_ns_per_op(
      trials, block_iters, [&](std::uint64_t n) { return block_loop<crypto::Aes128, false>(fast_aes, n); });
  const Trials enc_tbl = bench::cryptob::time_ns_per_op(
      trials, block_iters, [&](std::uint64_t n) { return block_loop<crypto::Aes128, false>(tbl_aes, n); });
  const Trials enc_scalar = bench::cryptob::time_ns_per_op(
      trials, block_iters,
      [&](std::uint64_t n) { return block_loop<crypto::ScalarAes128, false>(scalar_aes, n); });
  const Trials dec_fast = bench::cryptob::time_ns_per_op(
      trials, block_iters, [&](std::uint64_t n) { return block_loop<crypto::Aes128, true>(fast_aes, n); });
  const Trials dec_tbl = bench::cryptob::time_ns_per_op(
      trials, block_iters, [&](std::uint64_t n) { return block_loop<crypto::Aes128, true>(tbl_aes, n); });
  const Trials dec_scalar = bench::cryptob::time_ns_per_op(
      trials, block_iters,
      [&](std::uint64_t n) { return block_loop<crypto::ScalarAes128, true>(scalar_aes, n); });

  stats::Table blk({"op", "scalar (ns/blk)", "ttable (ns/blk)", "auto (ns/blk)", "speedup"});
  blk.add_row({"encrypt_block", stats::Table::num(enc_scalar.median, 1),
               stats::Table::num(enc_tbl.median, 1), stats::Table::num(enc_fast.median, 1),
               stats::Table::num(speedup(enc_scalar, enc_fast), 2)});
  blk.add_row({"decrypt_block", stats::Table::num(dec_scalar.median, 1),
               stats::Table::num(dec_tbl.median, 1), stats::Table::num(dec_fast.median, 1),
               stats::Table::num(speedup(dec_scalar, dec_fast), 2)});
  blk.print();
  std::cout << "\n";

  // --- AES-CBC by payload --------------------------------------------------
  struct CbcRow {
    std::size_t bytes;
    Trials enc_scalar, enc_tbl, enc_fast, dec_scalar, dec_tbl, dec_fast;
  };
  std::vector<CbcRow> cbc_rows;
  for (const std::size_t bytes : {64u, 256u, 1024u, 1472u}) {
    std::vector<std::uint8_t> buf(bytes);
    for (std::size_t i = 0; i < bytes; ++i) buf[i] = static_cast<std::uint8_t>(i);
    const std::uint64_t iters = (2'000'000 / bytes + 1) * scale;
    CbcRow row;
    row.bytes = bytes;
    row.enc_scalar = bench::cryptob::time_ns_per_op(
        trials, iters, [&](std::uint64_t n) { return cbc_loop<crypto::ScalarAesCbc, false>(scalar_cbc, buf, n); });
    row.enc_tbl = bench::cryptob::time_ns_per_op(
        trials, iters, [&](std::uint64_t n) { return cbc_loop<crypto::AesCbc, false>(tbl_cbc, buf, n); });
    row.enc_fast = bench::cryptob::time_ns_per_op(
        trials, iters, [&](std::uint64_t n) { return cbc_loop<crypto::AesCbc, false>(fast_cbc, buf, n); });
    row.dec_scalar = bench::cryptob::time_ns_per_op(
        trials, iters, [&](std::uint64_t n) { return cbc_loop<crypto::ScalarAesCbc, true>(scalar_cbc, buf, n); });
    row.dec_tbl = bench::cryptob::time_ns_per_op(
        trials, iters, [&](std::uint64_t n) { return cbc_loop<crypto::AesCbc, true>(tbl_cbc, buf, n); });
    row.dec_fast = bench::cryptob::time_ns_per_op(
        trials, iters, [&](std::uint64_t n) { return cbc_loop<crypto::AesCbc, true>(fast_cbc, buf, n); });
    cbc_rows.push_back(row);
  }
  stats::Table cbc({"payload (B)", "enc scalar (ns)", "enc ttable (ns)", "enc auto (ns)",
                    "enc speedup", "dec scalar (ns)", "dec ttable (ns)", "dec auto (ns)",
                    "dec speedup"});
  for (const auto& r : cbc_rows) {
    cbc.add_row({std::to_string(r.bytes), stats::Table::num(r.enc_scalar.median, 0),
                 stats::Table::num(r.enc_tbl.median, 0), stats::Table::num(r.enc_fast.median, 0),
                 stats::Table::num(speedup(r.enc_scalar, r.enc_fast), 2),
                 stats::Table::num(r.dec_scalar.median, 0),
                 stats::Table::num(r.dec_tbl.median, 0), stats::Table::num(r.dec_fast.median, 0),
                 stats::Table::num(speedup(r.dec_scalar, r.dec_fast), 2)});
  }
  cbc.print();
  std::cout << "\n";

  // --- SHA-1 / HMAC-SHA1-96 ------------------------------------------------
  const std::vector<std::uint8_t> auth_key(20, 0xa5);
  const crypto::HmacSha1 fast_hmac(auth_key);
  const crypto::ScalarHmacSha1 scalar_hmac(auth_key);
  struct HmacRow {
    std::size_t bytes;
    Trials scalar, fast;
  };
  std::vector<HmacRow> hmac_rows;
  for (const std::size_t bytes : {16u, 64u, 256u, 1472u}) {
    std::vector<std::uint8_t> msg(bytes, 0x5a);
    const std::uint64_t iters = (1'000'000 / (bytes + 64) + 1) * scale;
    HmacRow row;
    row.bytes = bytes;
    row.scalar = bench::cryptob::time_ns_per_op(
        trials, iters, [&](std::uint64_t n) { return hmac_loop(scalar_hmac, msg, n); });
    row.fast = bench::cryptob::time_ns_per_op(
        trials, iters, [&](std::uint64_t n) { return hmac_loop(fast_hmac, msg, n); });
    hmac_rows.push_back(row);
  }
  stats::Table hm({"msg (B)", "scalar (ns/tag)", "fast (ns/tag)", "speedup"});
  for (const auto& r : hmac_rows) {
    hm.add_row({std::to_string(r.bytes), stats::Table::num(r.scalar.median, 0),
                stats::Table::num(r.fast.median, 0),
                stats::Table::num(speedup(r.scalar, r.fast), 2)});
  }
  hm.print();
  std::cout << "\n";

  // --- full ESP encap+decap ------------------------------------------------
  const auto sa = bench::cryptob::bench_sa();
  net::Packet tmpl;
  net::build_udp_packet(tmpl, {net::ipv4_addr(192, 168, 1, 5), net::ipv4_addr(192, 168, 2, 9),
                               5555, 6666, net::kIpProtoUdp});
  const std::vector<std::uint8_t> inner(tmpl.data(), tmpl.data() + tmpl.size());
  apps::IpsecGateway fast_eg(sa), fast_in(sa);
  apps::ScalarIpsecGateway scalar_eg(sa), scalar_in(sa);
  apps::IpsecGateway burst_eg(sa), burst_in(sa);
  const std::uint64_t pkt_iters = 20'000 * scale;
  const Trials gw_scalar = bench::cryptob::time_ns_per_op(
      trials, pkt_iters, [&](std::uint64_t n) { return gateway_loop(scalar_eg, scalar_in, inner, n); });
  const Trials gw_fast = bench::cryptob::time_ns_per_op(
      trials, pkt_iters, [&](std::uint64_t n) { return gateway_loop(fast_eg, fast_in, inner, n); });
  const Trials gw_burst = bench::cryptob::time_ns_per_op(
      trials, pkt_iters, [&](std::uint64_t n) { return gateway_burst_loop(burst_eg, burst_in, inner, n); });

  stats::Table gw({"path", "ns/pkt", "pkt/s", "speedup vs scalar"});
  const auto pps = [](const Trials& s) { return s.median > 0 ? 1e9 / s.median : 0.0; };
  gw.add_row({"scalar encap+decap", stats::Table::num(gw_scalar.median, 0),
              stats::Table::num(pps(gw_scalar), 0), "1.00"});
  gw.add_row({"fast encap+decap", stats::Table::num(gw_fast.median, 0),
              stats::Table::num(pps(gw_fast), 0),
              stats::Table::num(speedup(gw_scalar, gw_fast), 2)});
  gw.add_row({"fast burst(32)", stats::Table::num(gw_burst.median, 0),
              stats::Table::num(pps(gw_burst), 0),
              stats::Table::num(speedup(gw_scalar, gw_burst), 2)});
  gw.print();
  std::cout << "\n";

  // --- JSON report ---------------------------------------------------------
  const auto emit_pair = [](stats::JsonWriter& w, const char* name, const Trials& scalar,
                            const Trials& fast) {
    w.key(name).begin_object();
    w.kv("scalar_ns_median", scalar.median);
    w.kv("scalar_ns_iqr", scalar.iqr);
    w.kv("fast_ns_median", fast.median);
    w.kv("fast_ns_iqr", fast.iqr);
    w.kv("speedup_median", speedup(scalar, fast));
    w.end_object();
  };
  std::ofstream json_file("BENCH_crypto.json");
  stats::JsonWriter w(json_file);
  w.begin_object();
  w.kv("bench", "crypto");
  w.kv("mode", fast ? "fast" : "full");
  w.kv("trials", static_cast<std::uint64_t>(trials));
  w.kv("aes_impl", aes_impl);
  emit_pair(w, "aes_block_encrypt", enc_scalar, enc_fast);
  emit_pair(w, "aes_block_decrypt", dec_scalar, dec_fast);
  w.key("aes_cbc").begin_array();
  for (const auto& r : cbc_rows) {
    w.begin_object();
    w.kv("payload_bytes", static_cast<std::uint64_t>(r.bytes));
    w.kv("encrypt_scalar_ns_median", r.enc_scalar.median);
    w.kv("encrypt_ttable_ns_median", r.enc_tbl.median);
    w.kv("encrypt_fast_ns_median", r.enc_fast.median);
    w.kv("encrypt_speedup_median", speedup(r.enc_scalar, r.enc_fast));
    w.kv("decrypt_scalar_ns_median", r.dec_scalar.median);
    w.kv("decrypt_ttable_ns_median", r.dec_tbl.median);
    w.kv("decrypt_fast_ns_median", r.dec_fast.median);
    w.kv("decrypt_speedup_median", speedup(r.dec_scalar, r.dec_fast));
    w.end_object();
  }
  w.end_array();
  w.key("hmac_sha1_96").begin_array();
  for (const auto& r : hmac_rows) {
    w.begin_object();
    w.kv("message_bytes", static_cast<std::uint64_t>(r.bytes));
    w.kv("scalar_ns_median", r.scalar.median);
    w.kv("scalar_ns_iqr", r.scalar.iqr);
    w.kv("fast_ns_median", r.fast.median);
    w.kv("fast_ns_iqr", r.fast.iqr);
    w.kv("speedup_median", speedup(r.scalar, r.fast));
    w.end_object();
  }
  w.end_array();
  w.key("esp_encap_decap").begin_object();
  w.kv("scalar_ns_median", gw_scalar.median);
  w.kv("fast_ns_median", gw_fast.median);
  w.kv("fast_burst32_ns_median", gw_burst.median);
  w.kv("scalar_pps_median", pps(gw_scalar));
  w.kv("fast_pps_median", pps(gw_fast));
  w.kv("fast_burst32_pps_median", pps(gw_burst));
  w.kv("speedup_median", speedup(gw_scalar, gw_fast));
  w.end_object();
  w.end_object();
  w.finish();
  std::cout << "wrote BENCH_crypto.json (sink=" << static_cast<int>(bench::cryptob::g_sink)
            << ")\n";
  return 0;
}

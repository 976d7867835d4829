// Toeplitz hash + RSS indirection (the queue-spreading mechanism of the
// X520/XL710 NICs used in the paper's multi-queue experiments).
//
// rss_hash_ipv4() is the production hash: 12 lookups into byte-wise tables
// generated at compile time from kDefaultRssKey and XORed together, the
// technique of NIC datapaths and DPDK's rte_thash. toeplitz_hash() is the
// bit-serial algorithm of the Microsoft RSS specification, kept as the
// reference oracle the tests and the micro bench compare the tables with.
#pragma once

#include <array>
#include <cstdint>

namespace metro::nic {

/// Microsoft/Intel's default 40-byte RSS key (used by DPDK's testpmd).
inline constexpr std::array<std::uint8_t, 40> kDefaultRssKey = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3,
    0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3,
    0x80, 0x30, 0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

/// Toeplitz hash over an input byte string (RSS spec): for every set bit of
/// the input, XOR in the 32-bit window of the key starting at that bit.
/// Bit-serial reference implementation; not on any production path.
std::uint32_t toeplitz_hash(const std::uint8_t* data, std::size_t len,
                            const std::array<std::uint8_t, 40>& key = kDefaultRssKey);

/// Toeplitz hash of the IPv4 + L4-port RSS input (src ip, dst ip, src port,
/// dst port — all big-endian on the wire; pass host-order values here)
/// under kDefaultRssKey. Table-driven; bit-identical to toeplitz_hash() on
/// the same 12 bytes.
std::uint32_t rss_hash_ipv4(std::uint32_t src_ip, std::uint32_t dst_ip, std::uint16_t src_port,
                            std::uint16_t dst_port);

/// RSS redirection table (RETA): maps hash -> queue. 128 entries, as on
/// the 82599; initialised round-robin over `n_queues`.
class RssReta {
 public:
  static constexpr std::size_t kSize = 128;

  explicit RssReta(int n_queues) {
    for (std::size_t i = 0; i < kSize; ++i) {
      table_[i] = static_cast<std::uint16_t>(i % static_cast<std::size_t>(n_queues));
    }
  }

  std::uint16_t queue_for(std::uint32_t hash) const { return table_[hash % kSize]; }

  void set(std::size_t idx, std::uint16_t queue) { table_[idx] = queue; }

 private:
  std::array<std::uint16_t, kSize> table_{};
};

}  // namespace metro::nic

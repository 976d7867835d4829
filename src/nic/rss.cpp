#include "nic/rss.hpp"

namespace metro::nic {

namespace {

/// Byte-wise Toeplitz tables for a 12-byte input (the IPv4 + ports RSS
/// tuple). The hash is linear over GF(2): the hash of an input is the XOR
/// of the hashes of its bytes taken in place. So `t[i][b]` holds the hash
/// of an input that is zero except for value `b` at byte `i`, i.e. the XOR
/// of the 32-bit key windows starting at input bits 8i..8i+7 selected by
/// the set bits of `b` (MSB first). Built at compile time: 12 KB of
/// read-only data, no runtime init.
struct RssTables {
  std::uint32_t t[12][256];
};

/// The 32-bit key window starting at key bit `bit` (bit 0 = MSB of key[0]).
constexpr std::uint32_t key_window(const std::array<std::uint8_t, 40>& key, std::size_t bit) {
  std::uint64_t w = 0;
  for (std::size_t k = 0; k < 5; ++k) w = (w << 8) | key[bit / 8 + k];
  return static_cast<std::uint32_t>(w >> (8 - bit % 8));
}

constexpr RssTables make_rss_tables(const std::array<std::uint8_t, 40>& key) {
  RssTables tables{};
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t b = 0; b < 256; ++b) {
      std::uint32_t h = 0;
      for (std::size_t bit = 0; bit < 8; ++bit) {
        if ((b >> (7 - bit)) & 1u) h ^= key_window(key, 8 * i + bit);
      }
      tables.t[i][b] = h;
    }
  }
  return tables;
}

constexpr RssTables kTables = make_rss_tables(kDefaultRssKey);

constexpr std::uint32_t table_hash(std::uint32_t src_ip, std::uint32_t dst_ip,
                                   std::uint16_t src_port, std::uint16_t dst_port) {
  const auto& t = kTables.t;
  return t[0][src_ip >> 24] ^ t[1][(src_ip >> 16) & 0xff] ^ t[2][(src_ip >> 8) & 0xff] ^
         t[3][src_ip & 0xff] ^ t[4][dst_ip >> 24] ^ t[5][(dst_ip >> 16) & 0xff] ^
         t[6][(dst_ip >> 8) & 0xff] ^ t[7][dst_ip & 0xff] ^ t[8][src_port >> 8] ^
         t[9][src_port & 0xff] ^ t[10][dst_port >> 8] ^ t[11][dst_port & 0xff];
}

// Microsoft RSS verification vector: a wrong table fails the build.
// 66.9.149.187:2794 -> 161.142.100.80:1766 => 0x51ccc178
static_assert(table_hash(0x420995bbu, 0xa18e6450u, 2794, 1766) == 0x51ccc178u);

}  // namespace

std::uint32_t toeplitz_hash(const std::uint8_t* data, std::size_t len,
                            const std::array<std::uint8_t, 40>& key) {
  std::uint32_t result = 0;
  // Sliding 32-bit window of the key, advanced one bit per input bit.
  std::uint32_t window = (static_cast<std::uint32_t>(key[0]) << 24) |
                         (static_cast<std::uint32_t>(key[1]) << 16) |
                         (static_cast<std::uint32_t>(key[2]) << 8) |
                         static_cast<std::uint32_t>(key[3]);
  std::size_t next_key_byte = 4;
  std::uint8_t pending = next_key_byte < key.size() ? key[next_key_byte] : 0;
  int pending_bits = 8;

  for (std::size_t i = 0; i < len; ++i) {
    const std::uint8_t byte = data[i];
    for (int bit = 7; bit >= 0; --bit) {
      if ((byte >> bit) & 1) result ^= window;
      // Shift the window left by one, pulling the next key bit in.
      window <<= 1;
      if (pending_bits > 0) {
        window |= (pending >> 7) & 1;
        pending = static_cast<std::uint8_t>(pending << 1);
        --pending_bits;
      }
      if (pending_bits == 0) {
        ++next_key_byte;
        if (next_key_byte < key.size()) {
          pending = key[next_key_byte];
          pending_bits = 8;
        }
      }
    }
  }
  return result;
}

std::uint32_t rss_hash_ipv4(std::uint32_t src_ip, std::uint32_t dst_ip, std::uint16_t src_port,
                            std::uint16_t dst_port) {
  return table_hash(src_ip, dst_ip, src_port, dst_port);
}

}  // namespace metro::nic

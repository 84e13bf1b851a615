//===- support/Sha256.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Sha256.h"

using namespace elfie;

namespace {

constexpr uint32_t K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t rotr(uint32_t X, unsigned N) {
  return (X >> N) | (X << (32 - N));
}

void compressScalar(uint32_t *State, const uint8_t *Block) {
  uint32_t W[64];
  for (int I = 0; I < 16; ++I)
    W[I] = (uint32_t(Block[4 * I]) << 24) | (uint32_t(Block[4 * I + 1]) << 16) |
           (uint32_t(Block[4 * I + 2]) << 8) | uint32_t(Block[4 * I + 3]);
  for (int I = 16; I < 64; ++I) {
    uint32_t S0 = rotr(W[I - 15], 7) ^ rotr(W[I - 15], 18) ^ (W[I - 15] >> 3);
    uint32_t S1 = rotr(W[I - 2], 17) ^ rotr(W[I - 2], 19) ^ (W[I - 2] >> 10);
    W[I] = W[I - 16] + S0 + W[I - 7] + S1;
  }
  uint32_t A = State[0], B = State[1], C = State[2], D = State[3];
  uint32_t E = State[4], F = State[5], G = State[6], H = State[7];
  for (int I = 0; I < 64; ++I) {
    uint32_t S1 = rotr(E, 6) ^ rotr(E, 11) ^ rotr(E, 25);
    uint32_t Ch = (E & F) ^ (~E & G);
    uint32_t T1 = H + S1 + Ch + K[I] + W[I];
    uint32_t S0 = rotr(A, 2) ^ rotr(A, 13) ^ rotr(A, 22);
    uint32_t Maj = (A & B) ^ (A & C) ^ (B & C);
    uint32_t T2 = S0 + Maj;
    H = G;
    G = F;
    F = E;
    E = D + T1;
    D = C;
    C = B;
    B = A;
    A = T1 + T2;
  }
  State[0] += A;
  State[1] += B;
  State[2] += C;
  State[3] += D;
  State[4] += E;
  State[5] += F;
  State[6] += G;
  State[7] += H;
}

#if defined(__x86_64__) && defined(__GNUC__)
#define ELFIE_SHA_NI_DISPATCH 1
#include <immintrin.h>

/// SHA-NI compression over \p NumBlocks consecutive 64-byte blocks: the
/// sha256rnds2/sha256msg1/sha256msg2 instructions do four rounds per
/// issue, ~6-8x the scalar loop. Compiled for the sha+sse4.1 target only
/// here (no global -march bump); callers must gate on cpuHasShaNi().
__attribute__((target("sha,sse4.1,ssse3"))) void
compressBlocksShaNi(uint32_t *State, const uint8_t *Data,
                    size_t NumBlocks) {
  const __m128i Shuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Repack the linear state {ABCD, EFGH} into the {ABEF, CDGH} register
  // layout sha256rnds2 works on.
  __m128i Tmp = _mm_loadu_si128(reinterpret_cast<const __m128i *>(State));
  __m128i S1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i *>(State + 4));
  Tmp = _mm_shuffle_epi32(Tmp, 0xB1);
  S1 = _mm_shuffle_epi32(S1, 0x1B);
  __m128i S0 = _mm_alignr_epi8(Tmp, S1, 8);
  S1 = _mm_blend_epi16(S1, Tmp, 0xF0);

  while (NumBlocks--) {
    __m128i SaveS0 = S0, SaveS1 = S1;
    __m128i Msg, Msg0, Msg1, Msg2, Msg3;

    // Rounds 0-3.
    Msg = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Data));
    Msg0 = _mm_shuffle_epi8(Msg, Shuffle);
    Msg = _mm_add_epi32(
        Msg0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);

    // Rounds 4-7.
    Msg1 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Data + 16));
    Msg1 = _mm_shuffle_epi8(Msg1, Shuffle);
    Msg = _mm_add_epi32(
        Msg1, _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg0 = _mm_sha256msg1_epu32(Msg0, Msg1);

    // Rounds 8-11.
    Msg2 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Data + 32));
    Msg2 = _mm_shuffle_epi8(Msg2, Shuffle);
    Msg = _mm_add_epi32(
        Msg2, _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg1 = _mm_sha256msg1_epu32(Msg1, Msg2);

    // Rounds 12-15.
    Msg3 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Data + 48));
    Msg3 = _mm_shuffle_epi8(Msg3, Shuffle);
    Msg = _mm_add_epi32(
        Msg3, _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg3, Msg2, 4);
    Msg0 = _mm_add_epi32(Msg0, Tmp);
    Msg0 = _mm_sha256msg2_epu32(Msg0, Msg3);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg2 = _mm_sha256msg1_epu32(Msg2, Msg3);

    // Rounds 16-19.
    Msg = _mm_add_epi32(
        Msg0, _mm_set_epi64x(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg0, Msg3, 4);
    Msg1 = _mm_add_epi32(Msg1, Tmp);
    Msg1 = _mm_sha256msg2_epu32(Msg1, Msg0);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg3 = _mm_sha256msg1_epu32(Msg3, Msg0);

    // Rounds 20-23.
    Msg = _mm_add_epi32(
        Msg1, _mm_set_epi64x(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg1, Msg0, 4);
    Msg2 = _mm_add_epi32(Msg2, Tmp);
    Msg2 = _mm_sha256msg2_epu32(Msg2, Msg1);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg0 = _mm_sha256msg1_epu32(Msg0, Msg1);

    // Rounds 24-27.
    Msg = _mm_add_epi32(
        Msg2, _mm_set_epi64x(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg2, Msg1, 4);
    Msg3 = _mm_add_epi32(Msg3, Tmp);
    Msg3 = _mm_sha256msg2_epu32(Msg3, Msg2);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg1 = _mm_sha256msg1_epu32(Msg1, Msg2);

    // Rounds 28-31.
    Msg = _mm_add_epi32(
        Msg3, _mm_set_epi64x(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg3, Msg2, 4);
    Msg0 = _mm_add_epi32(Msg0, Tmp);
    Msg0 = _mm_sha256msg2_epu32(Msg0, Msg3);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg2 = _mm_sha256msg1_epu32(Msg2, Msg3);

    // Rounds 32-35.
    Msg = _mm_add_epi32(
        Msg0, _mm_set_epi64x(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg0, Msg3, 4);
    Msg1 = _mm_add_epi32(Msg1, Tmp);
    Msg1 = _mm_sha256msg2_epu32(Msg1, Msg0);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg3 = _mm_sha256msg1_epu32(Msg3, Msg0);

    // Rounds 36-39.
    Msg = _mm_add_epi32(
        Msg1, _mm_set_epi64x(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg1, Msg0, 4);
    Msg2 = _mm_add_epi32(Msg2, Tmp);
    Msg2 = _mm_sha256msg2_epu32(Msg2, Msg1);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg0 = _mm_sha256msg1_epu32(Msg0, Msg1);

    // Rounds 40-43.
    Msg = _mm_add_epi32(
        Msg2, _mm_set_epi64x(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg2, Msg1, 4);
    Msg3 = _mm_add_epi32(Msg3, Tmp);
    Msg3 = _mm_sha256msg2_epu32(Msg3, Msg2);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg1 = _mm_sha256msg1_epu32(Msg1, Msg2);

    // Rounds 44-47.
    Msg = _mm_add_epi32(
        Msg3, _mm_set_epi64x(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg3, Msg2, 4);
    Msg0 = _mm_add_epi32(Msg0, Tmp);
    Msg0 = _mm_sha256msg2_epu32(Msg0, Msg3);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg2 = _mm_sha256msg1_epu32(Msg2, Msg3);

    // Rounds 48-51.
    Msg = _mm_add_epi32(
        Msg0, _mm_set_epi64x(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg0, Msg3, 4);
    Msg1 = _mm_add_epi32(Msg1, Tmp);
    Msg1 = _mm_sha256msg2_epu32(Msg1, Msg0);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);
    Msg3 = _mm_sha256msg1_epu32(Msg3, Msg0);

    // Rounds 52-55.
    Msg = _mm_add_epi32(
        Msg1, _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg1, Msg0, 4);
    Msg2 = _mm_add_epi32(Msg2, Tmp);
    Msg2 = _mm_sha256msg2_epu32(Msg2, Msg1);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);

    // Rounds 56-59.
    Msg = _mm_add_epi32(
        Msg2, _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Tmp = _mm_alignr_epi8(Msg2, Msg1, 4);
    Msg3 = _mm_add_epi32(Msg3, Tmp);
    Msg3 = _mm_sha256msg2_epu32(Msg3, Msg2);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);

    // Rounds 60-63.
    Msg = _mm_add_epi32(
        Msg3, _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    S1 = _mm_sha256rnds2_epu32(S1, S0, Msg);
    Msg = _mm_shuffle_epi32(Msg, 0x0E);
    S0 = _mm_sha256rnds2_epu32(S0, S1, Msg);

    S0 = _mm_add_epi32(S0, SaveS0);
    S1 = _mm_add_epi32(S1, SaveS1);
    Data += 64;
  }

  // Unpack {ABEF, CDGH} back to the linear {ABCD, EFGH} layout.
  Tmp = _mm_shuffle_epi32(S0, 0x1B);
  S1 = _mm_shuffle_epi32(S1, 0xB1);
  S0 = _mm_blend_epi16(Tmp, S1, 0xF0);
  S1 = _mm_alignr_epi8(S1, Tmp, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i *>(State), S0);
  _mm_storeu_si128(reinterpret_cast<__m128i *>(State + 4), S1);
}

bool cpuHasShaNi() {
  static const bool Has = __builtin_cpu_supports("sha");
  return Has;
}
#endif // __x86_64__ && __GNUC__

/// Compresses \p NumBlocks consecutive blocks into \p State, dispatching
/// to the SHA-NI path when the CPU has it.
void compressBlocks(uint32_t *State, const uint8_t *Data,
                    size_t NumBlocks) {
#ifdef ELFIE_SHA_NI_DISPATCH
  if (cpuHasShaNi()) {
    compressBlocksShaNi(State, Data, NumBlocks);
    return;
  }
#endif
  for (size_t I = 0; I < NumBlocks; ++I)
    compressScalar(State, Data + 64 * I);
}

} // namespace

void Sha256::reset() {
  State[0] = 0x6a09e667;
  State[1] = 0xbb67ae85;
  State[2] = 0x3c6ef372;
  State[3] = 0xa54ff53a;
  State[4] = 0x510e527f;
  State[5] = 0x9b05688c;
  State[6] = 0x1f83d9ab;
  State[7] = 0x5be0cd19;
  TotalBytes = 0;
  BufLen = 0;
}

void Sha256::compress(const uint8_t *Block) {
  compressBlocks(State, Block, 1);
}

void Sha256::update(const void *Data, size_t Size) {
  // Empty input may come with a null pointer, which memcpy must not see.
  if (Size == 0)
    return;
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  TotalBytes += Size;
  if (BufLen) {
    size_t Need = 64 - BufLen;
    size_t Take = Size < Need ? Size : Need;
    std::memcpy(Buf + BufLen, P, Take);
    BufLen += Take;
    P += Take;
    Size -= Take;
    if (BufLen == 64) {
      compress(Buf);
      BufLen = 0;
    }
  }
  if (Size >= 64) {
    size_t Blocks = Size / 64;
    compressBlocks(State, P, Blocks);
    P += Blocks * 64;
    Size -= Blocks * 64;
  }
  if (Size) {
    std::memcpy(Buf, P, Size);
    BufLen = Size;
  }
}

Sha256Digest Sha256::final() {
  uint64_t BitLen = TotalBytes * 8;
  uint8_t Pad[72];
  size_t PadLen = (BufLen < 56) ? (56 - BufLen) : (120 - BufLen);
  Pad[0] = 0x80;
  std::memset(Pad + 1, 0, PadLen - 1);
  for (int I = 0; I < 8; ++I)
    Pad[PadLen + I] = static_cast<uint8_t>(BitLen >> (56 - 8 * I));
  update(Pad, PadLen + 8);
  Sha256Digest D;
  for (int I = 0; I < 8; ++I) {
    D.Bytes[4 * I] = static_cast<uint8_t>(State[I] >> 24);
    D.Bytes[4 * I + 1] = static_cast<uint8_t>(State[I] >> 16);
    D.Bytes[4 * I + 2] = static_cast<uint8_t>(State[I] >> 8);
    D.Bytes[4 * I + 3] = static_cast<uint8_t>(State[I]);
  }
  return D;
}

std::string Sha256Digest::hex() const {
  static const char *Digits = "0123456789abcdef";
  std::string Out;
  Out.reserve(64);
  for (uint8_t B : Bytes) {
    Out.push_back(Digits[B >> 4]);
    Out.push_back(Digits[B & 0xf]);
  }
  return Out;
}

Expected<Sha256Digest> Sha256Digest::fromHex(const std::string &Hex) {
  auto Nibble = [](char C) -> int {
    if (C >= '0' && C <= '9')
      return C - '0';
    if (C >= 'a' && C <= 'f')
      return C - 'a' + 10;
    if (C >= 'A' && C <= 'F')
      return C - 'A' + 10;
    return -1;
  };
  if (Hex.size() != 64)
    return makeCodedError("EFAULT.STORE.DIGEST",
                          "'%s' is not a sha256 digest (want 64 hex chars, "
                          "got %zu)",
                          Hex.c_str(), Hex.size());
  Sha256Digest D;
  for (size_t I = 0; I < 32; ++I) {
    int Hi = Nibble(Hex[2 * I]), Lo = Nibble(Hex[2 * I + 1]);
    if (Hi < 0 || Lo < 0)
      return makeCodedError("EFAULT.STORE.DIGEST",
                            "'%s' is not a sha256 digest (non-hex character)",
                            Hex.c_str());
    D.Bytes[I] = static_cast<uint8_t>((Hi << 4) | Lo);
  }
  return D;
}

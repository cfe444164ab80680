/**
 * @file
 * Word-level bit utilities for the packed simulation kernels
 * (C++17 has no <bit>; wrap the compiler builtin with a portable
 * fallback).
 */

#ifndef DCMBQC_COMMON_BITS_HH
#define DCMBQC_COMMON_BITS_HH

#include <cstdint>

namespace dcmbqc
{

inline int
popcount64(std::uint64_t v)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_popcountll(v);
#else
    v = v - ((v >> 1) & 0x5555555555555555ull);
    v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
    v = (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<int>((v * 0x0101010101010101ull) >> 56);
#endif
}

/** 1 when v has an odd number of set bits, else 0. */
inline int
parity64(std::uint64_t v)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_parityll(v);
#else
    return popcount64(v) & 1;
#endif
}

} // namespace dcmbqc

#endif // DCMBQC_COMMON_BITS_HH

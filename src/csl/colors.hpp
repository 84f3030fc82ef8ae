#pragma once
// Central color plan for the dataflow FV application. Keeping every color
// assignment in one table prevents collisions between components, the same
// discipline a real CSL project needs for its 24 routable colors.

#include "wse/color.hpp"

namespace fvdf::csl {

using wse::Color;

// --- routable colors (0..23) ---

// Halo exchange (Table I): two colors per fabric dimension.
inline constexpr Color kHaloC1 = 0; // X dimension, odd-x senders
inline constexpr Color kHaloC2 = 1; // X dimension, even-x senders
inline constexpr Color kHaloC3 = 2; // Y dimension, odd-y senders
inline constexpr Color kHaloC4 = 3; // Y dimension, even-y senders

// All-reduce (Sec. III-C): parity-alternating chain colors plus the two
// broadcast colors of phase 3.
inline constexpr Color kReduceRowA = 4;
inline constexpr Color kReduceRowB = 5;
inline constexpr Color kReduceColA = 6;
inline constexpr Color kReduceColB = 7;
inline constexpr Color kBcastCol = 8;
inline constexpr Color kBcastRow = 9;

// Localized broadcast demo (Fig. 4) — used by tests/examples only.
inline constexpr Color kExchangeX = 10;

// Any-source whole-fabric broadcast (the paper's future-work item on
// "data movement from any cell"): row flood + per-column fan-out.
inline constexpr Color kBcastAnyRow = 11;
inline constexpr Color kBcastAnyCol = 12;

// --- local task colors (24..) ---

inline constexpr Color kHaloDoneX = 24; // per-step X action completion
inline constexpr Color kHaloDoneY = 25; // per-step Y action completion
inline constexpr Color kReduceRowDone = 26;
inline constexpr Color kReduceColDone = 27;
inline constexpr Color kBcastColDone = 28;
inline constexpr Color kBcastRowDone = 29;
inline constexpr Color kExchangeDone = 30;

// Any-source broadcast completion.
inline constexpr Color kBcastAnyDone = 32;

} // namespace fvdf::csl

//===- support/Watchdog.h - Budget-scaled alarm(2) guard -------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The budget-scaled watchdog shared by native ELFies (emitted code, see
/// core/NativeElfie.cpp), the replay tools (ereplay/evm arm it around a
/// run), and the campaign runner (per-job subprocess timeouts). All three
/// derive the timeout from the same scaling rule so a hang is always
/// bounded but a legitimately long region is never killed.
///
/// A fired watchdog exits 125, matching the native ELFie's documented
/// ungraceful-exit code (DESIGN.md §8), so campaign-level classification
/// sees one code regardless of which layer caught the hang.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SUPPORT_WATCHDOG_H
#define ELFIE_SUPPORT_WATCHDOG_H

#include <cstdint>

namespace elfie {

/// Budget-scaled timeout: FloorSecs of fixed headroom plus the time the
/// budget would take at a pessimistically slow \p InstrPerSec, capped so a
/// corrupt budget cannot disable the guard. The 50M/s default matches the
/// native ELFie's emitted guard; interpreting consumers (ereplay/evm) pass
/// a lower rate.
uint64_t scaledWatchdogSeconds(uint64_t BudgetInstructions,
                               uint64_t InstrPerSec = 50000000ull,
                               uint64_t FloorSecs = 10,
                               uint64_t CapSecs = 600);

/// Arms a SIGALRM handler that prints "<tool>: watchdog: budget timeout
/// after <secs>s" and _exits 125, then alarm(\p Secs). No-op when Secs
/// is 0.
void armBudgetWatchdog(const char *Tool, uint64_t Secs);

/// Cancels the pending alarm (alarm(0)) and restores the default SIGALRM
/// disposition. Tools call this on the success path so a fast run cannot
/// leak a pending alarm or a custom handler into a long-lived harness
/// that embeds them.
void disarmBudgetWatchdog();

/// True between arm and disarm (for tests).
bool budgetWatchdogArmed();

} // namespace elfie

#endif // ELFIE_SUPPORT_WATCHDOG_H

//===- support/Watchdog.cpp -----------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Watchdog.h"

#include "support/Error.h"

#include <algorithm>
#include <cstring>
#include <signal.h>
#include <unistd.h>

using namespace elfie;

uint64_t elfie::scaledWatchdogSeconds(uint64_t BudgetInstructions,
                                      uint64_t InstrPerSec,
                                      uint64_t FloorSecs, uint64_t CapSecs) {
  if (InstrPerSec == 0)
    InstrPerSec = 1;
  uint64_t Secs = FloorSecs + BudgetInstructions / InstrPerSec;
  return std::min(Secs, CapSecs);
}

namespace {

// Message prebuilt at arm time: the handler may only use async-signal-safe
// calls (write/_exit).
char WatchdogMessage[160];
size_t WatchdogMessageLen = 0;
bool Armed = false;

void onWatchdogAlarm(int) {
  if (WatchdogMessageLen)
    (void)!::write(2, WatchdogMessage, WatchdogMessageLen);
  ::_exit(ExitWatchdog);
}

void appendStr(const char *S) {
  size_t N = std::strlen(S);
  size_t Room = sizeof(WatchdogMessage) - WatchdogMessageLen;
  N = std::min(N, Room);
  std::memcpy(WatchdogMessage + WatchdogMessageLen, S, N);
  WatchdogMessageLen += N;
}

void appendU64(uint64_t V) {
  char Buf[24];
  size_t I = sizeof(Buf);
  do {
    Buf[--I] = static_cast<char>('0' + V % 10);
    V /= 10;
  } while (V);
  size_t N = std::min(sizeof(Buf) - I,
                      sizeof(WatchdogMessage) - WatchdogMessageLen);
  std::memcpy(WatchdogMessage + WatchdogMessageLen, Buf + I, N);
  WatchdogMessageLen += N;
}

} // namespace

void elfie::armBudgetWatchdog(const char *Tool, uint64_t Secs) {
  if (Secs == 0)
    return;
  WatchdogMessageLen = 0;
  appendStr(Tool);
  appendStr(": watchdog: budget timeout after ");
  appendU64(Secs);
  appendStr("s\n");

  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onWatchdogAlarm;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGALRM, &SA, nullptr);
  ::alarm(static_cast<unsigned>(std::min<uint64_t>(Secs, 0x7fffffff)));
  Armed = true;
}

void elfie::disarmBudgetWatchdog() {
  ::alarm(0);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = SIG_DFL;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGALRM, &SA, nullptr);
  Armed = false;
}

bool elfie::budgetWatchdogArmed() { return Armed; }

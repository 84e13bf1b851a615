//===- fault/Mutator.h - Systematic artifact corruption --------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic corruption of on-disk artifacts (pinball directories and
/// ELF/ELFie files). Each seed maps to exactly one mutation, so a failing
/// seed reported by efault or a test reproduces bit-for-bit. The mutations
/// model the real failure surface: truncated tails (interrupted copy),
/// flipped bytes (media corruption), huge count fields (hostile or buggy
/// producer), deleted files (partial transfer), and patched headers.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_FAULT_MUTATOR_H
#define ELFIE_FAULT_MUTATOR_H

#include "support/Error.h"

#include <string>

namespace elfie {
namespace fault {

/// Recursively copies directory \p From to \p To (which must not exist).
Error copyTree(const std::string &From, const std::string &To);

/// Applies the seed-determined mutation to the pinball directory \p Dir in
/// place. Returns a human-readable description of what was done, e.g.
/// "truncate sel.log 812 -> 113". The caller mutates a scratch copy. Besides
/// byte-level damage and file deletion, some seeds draw a ZeroPageMut.
Expected<std::string> mutatePinballDir(const std::string &Dir,
                                       uint64_t Seed);

/// Corruptions of a payload-free (zero) page record in image.text or
/// inject.pages. Pinball::load must reject both with an EFAULT.PINBALL.*
/// code.
enum class ZeroPageMut {
  ClaimPayload, ///< the record's length says 4,096 payload bytes follow
  BadLength,    ///< the record's length is neither 0 nor 4,096
};

/// Applies \p Kind to one seed-chosen zero page record of the pinball
/// directory \p Dir in place; a no-op (said so in the description) when
/// the pinball has no zero page.
Expected<std::string> mutateZeroPageRecord(const std::string &Dir,
                                           ZeroPageMut Kind, uint64_t Seed);

/// Applies the seed-determined mutation to the ELF file at \p Path in
/// place. Returns a description of the mutation.
Expected<std::string> mutateElfFile(const std::string &Path, uint64_t Seed);

/// Applies the seed-determined mutation to the `.esimstate` warmup-
/// checkpoint sidecar at \p Path in place. Every kind is guaranteed to
/// change the file, and every kind maps to a definite EFAULT.SIMSTATE.*
/// rejection class: truncations and appended garbage (TRUNCATED), bit
/// flips (SEAL, or MAGIC when they land in the magic), magic scribbles
/// (MAGIC), and a hostile-producer kind that bumps the format version and
/// re-seals — a well-formed file from the future (VERSION). A sweep over
/// these seeds must therefore produce zero benign runs: a consumer that
/// accepts any mutated sidecar is failing open.
Expected<std::string> mutateSimStateFile(const std::string &Path,
                                         uint64_t Seed);

/// Applies the seed-determined mutation to the estore pool at \p Root:
/// most seeds flip one bit of one chunk (media corruption inside the
/// content-addressed pool; every consumer must reject the chunk with
/// EFAULT.STORE.DIGEST, never serve the bytes), a minority flip a byte of
/// a manifest (detected by the manifest seal as EFAULT.STORE.SEAL). The
/// description names the mutated file, so tests can assert scrub
/// quarantines exactly that chunk.
Expected<std::string> mutateStoreChunk(const std::string &Root,
                                       uint64_t Seed);

} // namespace fault
} // namespace elfie

#endif // ELFIE_FAULT_MUTATOR_H

#pragma once
// Binary field checkpointing: save/restore named f64 fields with grid
// metadata, so long simulations (transient, IMPES) and the serve daemon's
// interrupted jobs can stop and resume. Format: magic "FVDF", format
// version, grid dims, length-prefixed (name, data) records, and — since
// version 2 — a trailing FNV-1a checksum over the payload. Loading
// validates magic, version, sizes and the checksum and throws fvdf::Error
// on any mismatch, truncation or bit flip — a corrupt checkpoint must
// never load as silently-wrong data. Version-1 files (no checksum) still
// load for backward compatibility.

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace fvdf {

struct FieldCheckpoint {
  i64 nx = 0, ny = 0, nz = 0; // grid shape the fields belong to
  std::map<std::string, std::vector<f64>> fields;

  /// Convenience accessor that throws if the field is missing.
  const std::vector<f64>& field(const std::string& name) const;

  /// Throws fvdf::Error (naming both shapes) unless the checkpoint's grid
  /// matches — restoring a field onto the wrong mesh must fail loudly,
  /// not interpolate garbage. `what` names the consumer for the message
  /// (e.g. the scenario or job id).
  void require_grid(i64 nx, i64 ny, i64 nz, const std::string& what) const;
};

/// Writes the checkpoint through write_file_atomic, format version 2
/// (payload checksum).
void save_checkpoint(const std::string& path, const FieldCheckpoint& checkpoint);

/// Writes `bytes` to `path` via a temp file (`path` + ".tmp") and a rename,
/// so readers see the old file or the complete new one, never a torn
/// write. Throws fvdf::Error if the temp file cannot be opened or written,
/// or the rename fails.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Reads and validates a checkpoint (versions 1 and 2).
FieldCheckpoint load_checkpoint(const std::string& path);

/// FNV-1a 64-bit over a byte span — the checkpoint payload checksum, also
/// used by the serve subsystem for content-addressed cache keys and
/// result fingerprints. Deterministic across platforms of equal
/// endianness (we only target little-endian hosts, like the rest of the
/// binary checkpoint format).
u64 fnv1a64(const void* data, std::size_t bytes, u64 seed = 14695981039346656037ull);

/// Hex rendering of a 64-bit hash (16 lowercase digits).
std::string hash_hex(u64 hash);

} // namespace fvdf

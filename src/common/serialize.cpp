#include "common/serialize.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace fvdf {

namespace {
constexpr char kMagic[4] = {'F', 'V', 'D', 'F'};
constexpr u32 kVersion = 2;      // payload checksum trailer
constexpr u32 kVersionNoSum = 1; // legacy: no checksum, still loadable

template <typename T> void append_pod(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Cursor over an in-memory payload with truncation-checked reads. The
/// whole file is small enough (field data of one run) to read at once,
/// which lets the checksum cover every payload byte before any of them
/// are interpreted.
struct Reader {
  const char* cursor;
  const char* end;
  const std::string& path;

  template <typename T> T pod(const char* what) {
    T value{};
    FVDF_CHECK_MSG(end - cursor >= static_cast<std::ptrdiff_t>(sizeof(T)),
                   path << ": checkpoint truncated while reading " << what
                        << " (" << (end - cursor) << " bytes left, need "
                        << sizeof(T) << ")");
    std::memcpy(&value, cursor, sizeof(T));
    cursor += sizeof(T);
    return value;
  }

  void bytes(void* out, std::size_t n, const char* what) {
    FVDF_CHECK_MSG(end - cursor >= static_cast<std::ptrdiff_t>(n),
                   path << ": checkpoint truncated in " << what);
    std::memcpy(out, cursor, n);
    cursor += n;
  }
};
} // namespace

u64 fnv1a64(const void* data, std::size_t bytes, u64 seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  u64 hash = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hash_hex(u64 hash) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

const std::vector<f64>& FieldCheckpoint::field(const std::string& name) const {
  const auto it = fields.find(name);
  FVDF_CHECK_MSG(it != fields.end(), "checkpoint has no field '" << name << "'");
  return it->second;
}

void FieldCheckpoint::require_grid(i64 want_nx, i64 want_ny, i64 want_nz,
                                   const std::string& what) const {
  FVDF_CHECK_MSG(nx == want_nx && ny == want_ny && nz == want_nz,
                 what << ": checkpoint grid " << nx << "x" << ny << "x" << nz
                      << " does not match the expected " << want_nx << "x"
                      << want_ny << "x" << want_nz
                      << " — was this checkpoint written by a different case?");
}

void save_checkpoint(const std::string& path, const FieldCheckpoint& checkpoint) {
  // Serialize the payload (everything after magic+version) into memory
  // first so the version-2 checksum can cover it byte for byte.
  std::string payload;
  append_pod(payload, checkpoint.nx);
  append_pod(payload, checkpoint.ny);
  append_pod(payload, checkpoint.nz);
  append_pod(payload, static_cast<u32>(checkpoint.fields.size()));
  for (const auto& [name, data] : checkpoint.fields) {
    append_pod(payload, static_cast<u32>(name.size()));
    payload.append(name.data(), name.size());
    append_pod(payload, static_cast<u64>(data.size()));
    payload.append(reinterpret_cast<const char*>(data.data()),
                   data.size() * sizeof(f64));
  }
  const u64 checksum = fnv1a64(payload.data(), payload.size());

  std::string file(kMagic, 4);
  append_pod(file, kVersion);
  file += payload;
  append_pod(file, checksum);
  write_file_atomic(path, file);
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    FVDF_CHECK_MSG(out.good(), "cannot open " << tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    FVDF_CHECK_MSG(out.good(), "write failed: " << tmp);
  }
  FVDF_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "rename to " << path << " failed");
}

FieldCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FVDF_CHECK_MSG(in.good(), "cannot open checkpoint " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  FVDF_CHECK_MSG(in.good() || in.eof(), "read failed: " << path);
  const std::string file = std::move(buffer).str();

  FVDF_CHECK_MSG(file.size() >= 4 + sizeof(u32) &&
                     std::memcmp(file.data(), kMagic, 4) == 0,
                 path << " is not an FVDF checkpoint");
  u32 version = 0;
  std::memcpy(&version, file.data() + 4, sizeof(version));
  FVDF_CHECK_MSG(version == kVersion || version == kVersionNoSum,
                 path << ": unsupported checkpoint version " << version
                      << " (this build reads versions 1-" << kVersion << ")");

  const char* payload = file.data() + 4 + sizeof(u32);
  std::size_t payload_size = file.size() - 4 - sizeof(u32);
  if (version == kVersion) {
    FVDF_CHECK_MSG(payload_size >= sizeof(u64),
                   path << ": checkpoint truncated before the checksum");
    payload_size -= sizeof(u64);
    u64 stored = 0;
    std::memcpy(&stored, payload + payload_size, sizeof(stored));
    const u64 actual = fnv1a64(payload, payload_size);
    FVDF_CHECK_MSG(stored == actual,
                   path << ": checkpoint checksum mismatch (stored "
                        << hash_hex(stored) << ", computed " << hash_hex(actual)
                        << ") — the file is corrupt or was truncated/"
                           "bit-flipped after writing");
  }

  Reader reader{payload, payload + payload_size, path};
  FieldCheckpoint checkpoint;
  checkpoint.nx = reader.pod<i64>("nx");
  checkpoint.ny = reader.pod<i64>("ny");
  checkpoint.nz = reader.pod<i64>("nz");
  const u32 field_count = reader.pod<u32>("field count");
  FVDF_CHECK_MSG(field_count < 1024,
                 path << ": implausible field count " << field_count);
  for (u32 f = 0; f < field_count; ++f) {
    const u32 name_len = reader.pod<u32>("name length");
    FVDF_CHECK_MSG(name_len < 4096, path << ": implausible field-name length");
    std::string name(name_len, '\0');
    reader.bytes(name.data(), name_len, "field name");
    const u64 size = reader.pod<u64>("field size");
    FVDF_CHECK_MSG(size < (1ull << 32), path << ": implausible field size");
    std::vector<f64> data(size);
    reader.bytes(data.data(), static_cast<std::size_t>(size) * sizeof(f64),
                 ("field '" + name + "'").c_str());
    checkpoint.fields.emplace(std::move(name), std::move(data));
  }
  FVDF_CHECK_MSG(reader.cursor == reader.end,
                 path << ": " << (reader.end - reader.cursor)
                      << " trailing bytes after the last field");
  return checkpoint;
}

} // namespace fvdf

#include "store/manifest.h"

#include "core/approximate_code.h"
#include "store/store.h"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace approx::store {

namespace {

// The v2 keys written by save(); anything else found by load() is
// preserved in Manifest::extra.
const char* const kKnownKeys[] = {
    "format",        "family", "k",        "r",         "g",
    "h",             "structure", "block", "io_payload", "file_size",
    "important_len", "chunks", "file_crc32"};

bool known_key(const std::string& key) {
  for (const char* k : kKnownKeys) {
    if (key == k) return true;
  }
  return false;
}

[[noreturn]] void corrupt(const std::string& what) {
  throw Error("corrupt manifest: " + what);
}

const std::string& require(const std::map<std::string, std::string>& kv,
                           const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) corrupt("missing key '" + key + "'");
  return it->second;
}

// Strict decimal parse: the whole value must be digits (no sign, no
// trailing garbage) and fit the destination.
std::uint64_t parse_u64(const std::map<std::string, std::string>& kv,
                        const std::string& key) {
  const std::string& s = require(kv, key);
  if (s.empty()) corrupt("empty value for '" + key + "'");
  std::uint64_t v = 0;
  for (const char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      corrupt("non-numeric value '" + s + "' for '" + key + "'");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      corrupt("value '" + s + "' for '" + key + "' overflows");
    }
    v = v * 10 + digit;
  }
  return v;
}

int parse_small_int(const std::map<std::string, std::string>& kv,
                    const std::string& key, int max = 4096) {
  const std::uint64_t v = parse_u64(kv, key);
  if (v > static_cast<std::uint64_t>(max)) {
    corrupt("value for '" + key + "' out of range");
  }
  return static_cast<int>(v);
}

std::string family_flag(codes::Family f) {
  std::string name = codes::family_name(f);
  for (auto& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

}  // namespace

IoStatus Manifest::save(IoBackend& io, const std::filesystem::path& dir,
                        const RetryPolicy& retry) const {
  std::ostringstream out;
  out << "format=approxcode-volume-v2\n"
      << "family=" << family_flag(params.family) << "\n"
      << "k=" << params.k << "\nr=" << params.r << "\ng=" << params.g
      << "\nh=" << params.h << "\n"
      << "structure="
      << (params.structure == core::Structure::Even ? "even" : "uneven")
      << "\n"
      << "block=" << block << "\n"
      << "io_payload=" << io_payload << "\n"
      << "file_size=" << file_size << "\n"
      << "important_len=" << important_len << "\n"
      << "chunks=" << chunks << "\n"
      << "file_crc32=" << file_crc << "\n";
  for (const auto& [key, value] : extra) out << key << "=" << value << "\n";
  const std::string text = out.str();

  const std::filesystem::path final_path = dir / kManifestFile;
  const std::filesystem::path tmp_path = final_path.string() + kTmpSuffix;
  std::unique_ptr<IoFile> file;
  IoStatus st = with_retry(
      retry, [&] { return io.open(tmp_path, IoBackend::OpenMode::kTruncate, file); });
  if (!st.ok()) return st;
  st = with_retry(retry, [&] {
    return file->pwrite(0, {reinterpret_cast<const std::uint8_t*>(text.data()),
                            text.size()});
  });
  if (st.ok()) st = with_retry(retry, [&] { return file->sync(); });
  file.reset();
  if (!st.ok()) {
    (void)io.remove(tmp_path);
    return st;
  }
  st = with_retry(retry, [&] { return io.rename(tmp_path, final_path); });
  if (!st.ok()) {
    (void)io.remove(tmp_path);
    return st;
  }
  return io.sync_dir(dir);
}

Manifest Manifest::load(IoBackend& io, const std::filesystem::path& dir) {
  const std::filesystem::path path = dir / kManifestFile;
  std::uint64_t size = 0;
  IoStatus st = io.file_size(path, size);
  if (!st.ok()) {
    // Distinguish "the volume is not there" (an I/O condition callers can
    // branch on) from a manifest that parses badly (corruption).
    throw StoreError(IoCode::kNotFound, "no manifest in " + dir.string());
  }
  std::string text(size, '\0');
  std::unique_ptr<IoFile> file;
  st = io.open(path, IoBackend::OpenMode::kRead, file);
  if (st.ok() && size > 0) {
    st = file->pread(0, {reinterpret_cast<std::uint8_t*>(text.data()), size});
  }
  if (!st.ok()) throw StoreError(st.code, "cannot read manifest: " + st.message);

  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) corrupt("line without '=': '" + line + "'");
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }

  const std::string& format = require(kv, "format");
  Manifest m;
  if (format == "approxcode-volume-v1") {
    m.version = kVolumeV1;
  } else if (format == "approxcode-volume-v2") {
    m.version = kVolumeV2;
  } else {
    corrupt("unknown format '" + format + "'");
  }

  m.params.family = family_from_flag(require(kv, "family"));
  m.params.k = parse_small_int(kv, "k");
  m.params.r = parse_small_int(kv, "r");
  m.params.g = parse_small_int(kv, "g");
  m.params.h = parse_small_int(kv, "h");
  const std::string& structure = require(kv, "structure");
  if (structure == "even") {
    m.params.structure = core::Structure::Even;
  } else if (structure == "uneven") {
    m.params.structure = core::Structure::Uneven;
  } else {
    corrupt("unknown structure '" + structure + "'");
  }
  m.block = parse_u64(kv, "block");
  m.io_payload =
      m.version == kVolumeV2 ? parse_u64(kv, "io_payload") : kDefaultIoPayload;
  if (m.io_payload == 0) corrupt("'io_payload' must be positive");
  m.file_size = parse_u64(kv, "file_size");
  m.important_len = parse_u64(kv, "important_len");
  m.chunks = parse_u64(kv, "chunks");
  if (m.important_len > m.file_size) {
    corrupt("'important_len' exceeds 'file_size'");
  }
  const std::uint64_t crc = parse_u64(kv, "file_crc32");
  if (crc > std::numeric_limits<std::uint32_t>::max()) {
    corrupt("value for 'file_crc32' out of range");
  }
  m.file_crc = static_cast<std::uint32_t>(crc);
  try {
    m.params.validate(m.block);
  } catch (const Error& e) {
    corrupt(std::string("invalid code parameters: ") + e.what());
  }
  // The chunk count follows from the sizes; a manifest that disagrees
  // would otherwise decode as phantom data loss or silently truncate.
  std::uint64_t want_chunks = 0;
  try {
    want_chunks = core::ApproximateCode(m.params, m.block)
                      .chunk_count(m.important_len, m.file_size - m.important_len);
  } catch (const Error& e) {
    corrupt(e.what());
  }
  if (m.chunks != want_chunks) {
    corrupt("'chunks' is " + std::to_string(m.chunks) + " but the sizes need " +
            std::to_string(want_chunks));
  }
  for (const auto& [key, value] : kv) {
    if (!known_key(key)) m.extra[key] = value;
  }
  return m;
}

}  // namespace approx::store

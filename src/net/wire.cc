#include "net/wire.h"

#include <cstring>

#include "common/string_util.h"
#include "xra/plan.h"

namespace mjoin {

namespace {

/// CRC-32 lookup table for the IEEE polynomial, built on first use.
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t entries[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB8'8320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
    return entries;
  }();
  return table;
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
#define MJOIN_FRAME_NAME_ROW(id, name, wire, klass, dirs, phases, next) \
  case FrameType::k##name:                                              \
    return wire;
    MJOIN_FRAME_TABLE(MJOIN_FRAME_NAME_ROW)
#undef MJOIN_FRAME_NAME_ROW
  }
  return "unknown";
}

bool ValidFrameType(uint8_t raw) {
  switch (static_cast<FrameType>(raw)) {
#define MJOIN_FRAME_VALID_ROW(id, name, wire, klass, dirs, phases, next) \
  case FrameType::k##name:                                               \
    return true;
    MJOIN_FRAME_TABLE(MJOIN_FRAME_VALID_ROW)
#undef MJOIN_FRAME_VALID_ROW
  }
  return false;
}

uint32_t FrameDirs(FrameType type) {
  switch (type) {
#define MJOIN_FRAME_DIRS_ROW(id, name, wire, klass, dirs, phases, next) \
  case FrameType::k##name:                                              \
    return dirs;
    MJOIN_FRAME_TABLE(MJOIN_FRAME_DIRS_ROW)
#undef MJOIN_FRAME_DIRS_ROW
  }
  return 0;
}

uint32_t FramePhases(FrameType type) {
  switch (type) {
#define MJOIN_FRAME_PHASES_ROW(id, name, wire, klass, dirs, phases, next) \
  case FrameType::k##name:                                                \
    return phases;
    MJOIN_FRAME_TABLE(MJOIN_FRAME_PHASES_ROW)
#undef MJOIN_FRAME_PHASES_ROW
  }
  return 0;
}

// `next` is a bare phase token (or Keep); map it through these constants.
namespace {
inline constexpr uint32_t kPhNextKeep = kPhKeep;
inline constexpr uint32_t kPhNextAwaitPlan = kPhAwaitPlan;
inline constexpr uint32_t kPhNextHandshake = kPhHandshake;
inline constexpr uint32_t kPhNextExecute = kPhExecute;
inline constexpr uint32_t kPhNextReport = kPhReport;
inline constexpr uint32_t kPhNextDone = kPhDone;
}  // namespace

uint32_t FrameNextPhase(FrameType type) {
  switch (type) {
#define MJOIN_FRAME_NEXT_ROW(id, name, wire, klass, dirs, phases, next) \
  case FrameType::k##name:                                              \
    return kPhNext##next;
    MJOIN_FRAME_TABLE(MJOIN_FRAME_NEXT_ROW)
#undef MJOIN_FRAME_NEXT_ROW
  }
  return kPhKeep;
}

uint32_t Crc32(const std::byte* data, size_t size) {
  const uint32_t* table = Crc32Table();
  uint32_t crc = 0xFFFF'FFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<uint8_t>(data[i])) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFF'FFFFu;
}

void PutU8(std::vector<std::byte>* out, uint8_t v) {
  out->push_back(static_cast<std::byte>(v));
}

void PutU16(std::vector<std::byte>* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<std::byte>* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    PutU8(out, static_cast<uint8_t>(v >> shift));
  }
}

void PutU64(std::vector<std::byte>* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    PutU8(out, static_cast<uint8_t>(v >> shift));
  }
}

void PutI32(std::vector<std::byte>* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutI64(std::vector<std::byte>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::vector<std::byte>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::vector<std::byte>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  const std::byte* data = reinterpret_cast<const std::byte*>(s.data());
  out->insert(out->end(), data, data + s.size());
}

Status WireReader::ReadBytes(size_t size, const std::byte** data) {
  if (remaining() < size) {
    return Status::OutOfRange(
        StrCat("wire payload truncated: need ", size, " bytes, have ",
               remaining()));
  }
  *data = data_ + pos_;
  pos_ += size;
  return Status::OK();
}

Status WireReader::ReadU8(uint8_t* v) {
  const std::byte* p;
  MJOIN_RETURN_IF_ERROR(ReadBytes(1, &p));
  *v = static_cast<uint8_t>(p[0]);
  return Status::OK();
}

Status WireReader::ReadU16(uint16_t* v) {
  const std::byte* p;
  MJOIN_RETURN_IF_ERROR(ReadBytes(2, &p));
  *v = static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                             static_cast<uint16_t>(static_cast<uint8_t>(p[1]))
                                 << 8);
  return Status::OK();
}

Status WireReader::ReadU32(uint32_t* v) {
  const std::byte* p;
  MJOIN_RETURN_IF_ERROR(ReadBytes(4, &p));
  uint32_t out = 0;
  for (int i = 3; i >= 0; --i) {
    out = (out << 8) | static_cast<uint8_t>(p[i]);
  }
  *v = out;
  return Status::OK();
}

Status WireReader::ReadU64(uint64_t* v) {
  const std::byte* p;
  MJOIN_RETURN_IF_ERROR(ReadBytes(8, &p));
  uint64_t out = 0;
  for (int i = 7; i >= 0; --i) {
    out = (out << 8) | static_cast<uint8_t>(p[i]);
  }
  *v = out;
  return Status::OK();
}

Status WireReader::ReadI32(int32_t* v) {
  uint32_t raw;
  MJOIN_RETURN_IF_ERROR(ReadU32(&raw));
  *v = static_cast<int32_t>(raw);
  return Status::OK();
}

Status WireReader::ReadI64(int64_t* v) {
  uint64_t raw;
  MJOIN_RETURN_IF_ERROR(ReadU64(&raw));
  *v = static_cast<int64_t>(raw);
  return Status::OK();
}

Status WireReader::ReadF64(double* v) {
  uint64_t bits;
  MJOIN_RETURN_IF_ERROR(ReadU64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status WireReader::ReadString(std::string* s) {
  uint32_t size;
  MJOIN_RETURN_IF_ERROR(ReadU32(&size));
  const std::byte* p;
  MJOIN_RETURN_IF_ERROR(ReadBytes(size, &p));
  s->assign(reinterpret_cast<const char*>(p), size);
  return Status::OK();
}

SchemaRegistry::SchemaRegistry(const ParallelPlan& plan) {
  for (const XraOp& op : plan.ops) {
    Intern(op.input_schema);
    Intern(op.output_schema);
  }
}

void SchemaRegistry::Intern(const std::shared_ptr<const Schema>& schema) {
  if (schema == nullptr) return;
  for (const auto& known : schemas_) {
    if (*known == *schema) return;
  }
  schemas_.push_back(schema);
}

StatusOr<uint32_t> SchemaRegistry::IdOf(const Schema& schema) const {
  for (size_t i = 0; i < schemas_.size(); ++i) {
    if (*schemas_[i] == schema) return static_cast<uint32_t>(i);
  }
  return Status::NotFound(
      StrCat("schema not declared by the plan: ", schema.ToString()));
}

}  // namespace mjoin

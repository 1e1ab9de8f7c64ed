#include "base/bytes.h"

namespace adapt {

void ByteWriter::patch_u32(size_t pos, uint32_t v) {
  if (pos + 4 > buf_.size()) throw SerializationError("patch_u32 out of range");
  for (int i = 0; i < 4; ++i) buf_[pos + i] = static_cast<uint8_t>(v >> (8 * i));
}

void ByteReader::truncated() { throw SerializationError("truncated message"); }

std::string ByteReader::str() {
  const uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

}  // namespace adapt

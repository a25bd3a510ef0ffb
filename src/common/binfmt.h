// Little-endian fixed-width integer codec shared by pmiot's binary formats
// (`pmiotbt` traces in timeseries/trace_io.cpp, `pmiotcp` checkpoints in
// campaign/checkpoint.cpp). Each function reads or writes exactly the
// field's width at `p`; bounds checks stay with each format's decoder.
#pragma once

#include <cstdint>

namespace pmiot::binfmt {

inline void store_u32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

inline void store_u64(unsigned char* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline void store_i32(unsigned char* p, std::int32_t v) {
  store_u32(p, static_cast<std::uint32_t>(v));
}

inline std::uint32_t le_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t le_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(le_u32(p)) |
         static_cast<std::uint64_t>(le_u32(p + 4)) << 32;
}

inline std::int32_t le_i32(const unsigned char* p) {
  return static_cast<std::int32_t>(le_u32(p));
}

}  // namespace pmiot::binfmt

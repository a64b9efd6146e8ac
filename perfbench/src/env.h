#ifndef PXBENCH_ENV_H_
#define PXBENCH_ENV_H_

// Result stamping (host, toolchain, inputs) and the small JSON writer the
// benchmark prints its lines with.

#include <cstdint>
#include <string>
#include <string_view>

namespace pxbench {

/// Builds one flat JSON object, keys in insertion order. Numbers are
/// printed with all 17 significant digits.
class JsonObject {
 public:
  JsonObject& Str(std::string_view key, std::string_view value);
  JsonObject& Num(std::string_view key, double value);
  JsonObject& Int(std::string_view key, std::uint64_t value);
  /// `json` must already be valid JSON (an object, array or literal).
  JsonObject& Raw(std::string_view key, std::string_view json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_;
};

std::string JsonEscape(std::string_view s);

/// CPU model, nproc, compiler and version, build type and the active SIMD
/// lane backend, as JSON fields appended to `out`.
void StampHost(JsonObject* out);

/// VmHWM of this process in MiB (0 if /proc is unavailable).
double PeakRssMiB();
/// Resets VmHWM to the current RSS; false where the kernel refuses.
bool ResetPeakRss();

}  // namespace pxbench

#endif  // PXBENCH_ENV_H_

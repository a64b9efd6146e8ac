#include "env.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "util/simd.h"

#ifndef PXBENCH_BUILD_TYPE
#define PXBENCH_BUILD_TYPE "unknown"
#endif

namespace pxbench {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObject::Key(std::string_view key) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  Key(key);
  body_ += '"';
  body_ += JsonEscape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::Num(std::string_view key, double value) {
  Key(key);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::Int(std::string_view key, std::uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// A "Vm...:   N kB" field of /proc/self/status, in KiB.
double StatusKiB(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size()));
    }
  }
  return 0.0;
}

}  // namespace

void StampHost(JsonObject* out) {
  out->Str("cpu_model", CpuModel())
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("compiler", Compiler())
      .Str("build_type", PXBENCH_BUILD_TYPE)
      .Str("simd_backend",
           pxml::simd::BackendName(pxml::simd::ActiveBackend()));
}

double PeakRssMiB() { return StatusKiB("VmHWM") / 1024.0; }

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace pxbench

#include "util/logging.hpp"

#include <atomic>
#include <cstdio>

namespace dynasparse {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "[debug] ";
    case LogLevel::kInfo: return "[info ] ";
    case LogLevel::kWarn: return "[warn ] ";
    case LogLevel::kError: return "[error] ";
    default: return "";
  }
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

void log_message(LogLevel level, const std::string& msg) {
  if (level < g_level.load()) return;
  // The whole line goes out in ONE stdio call: POSIX stdio locks the
  // stream for the duration of each call, so concurrent loggers can
  // never interleave inside each other's lines.
  std::string line = tag(level);
  line += msg;
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace dynasparse

#pragma once
// Minimal leveled logger.
//
// The library is quiet by default (kWarn); benches and examples raise the
// level for progress reporting. Every level writes to stderr. Thread-safe:
// each message is written as one whole line, so lines from concurrent
// threads never interleave.

#include <sstream>
#include <string>

namespace dynasparse {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Set the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emit one line at `level` with a level tag prefix.
void log_message(LogLevel level, const std::string& msg);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
  if (log_level() <= LogLevel::kDebug)
    log_message(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::kInfo)
    log_message(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::kWarn)
    log_message(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_error(Args&&... args) {
  if (log_level() <= LogLevel::kError)
    log_message(LogLevel::kError, detail::concat(std::forward<Args>(args)...));
}

}  // namespace dynasparse

// Minimal logging / invariant-checking support.
//
// TSI_CHECK is used for programmer-error invariants throughout the library:
// it prints the failed condition with source location and aborts. Benches and
// examples use it too; it is enabled in all build types because the cost of a
// predictable abort is far lower than the cost of silently corrupt shards.
//
// TSI_LOG(severity) is leveled diagnostic logging to stderr:
//
//   TSI_LOG(DEBUG) << "admitted request " << id;   // off by default
//   TSI_LOG(INFO)  << "wrote " << path;
//   TSI_LOG(WARN)  << "fractions sum to " << s;
//   TSI_LOG(ERROR) << "cannot write " << path;
//
// The threshold comes from the TSI_LOG environment variable
// (debug|info|warn|error|off, case-insensitive; default info), read once on
// first use; SetLogLevel overrides it programmatically (tests). A disabled
// statement evaluates none of its stream operands.
#pragma once

#include <sstream>
#include <string>

namespace tsi {

// Aborts the process after printing `msg` with source location.
[[noreturn]] void CheckFailed(const char* file, int line, const char* cond,
                              const std::string& msg);

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

// True when `level` passes the active threshold.
bool LogEnabled(LogLevel level);
// Overrides the TSI_LOG threshold for the rest of the process.
void SetLogLevel(LogLevel level);
// The active threshold (env-var default or SetLogLevel override).
LogLevel GetLogLevel();

namespace internal {

inline constexpr LogLevel kLogDEBUG = LogLevel::kDebug;
inline constexpr LogLevel kLogINFO = LogLevel::kInfo;
inline constexpr LogLevel kLogWARN = LogLevel::kWarn;
inline constexpr LogLevel kLogERROR = LogLevel::kError;

// Stream-collector for one TSI_LOG statement; flushes a single line to
// stderr on destruction (so concurrent threads interleave whole lines).
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage();
  template <typename T>
  LogMessage& operator<<(const T& v) {
    ss_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream ss_;
};

// Swallows a finished message chain so the TSI_LOG/TSI_CHECK expressions
// are void in both arms.
struct Voidify {
  template <typename T>
  void operator&(T&&) {}
};

// Stream-collector so TSI_CHECK(x) << "context" works.
class CheckMessage {
 public:
  CheckMessage(const char* file, int line, const char* cond)
      : file_(file), line_(line), cond_(cond) {}
  [[noreturn]] ~CheckMessage() { CheckFailed(file_, line_, cond_, ss_.str()); }
  template <typename T>
  CheckMessage& operator<<(const T& v) {
    ss_ << v;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* cond_;
  std::ostringstream ss_;
};
}  // namespace internal

}  // namespace tsi

// Both macros are one conditional expression, not an if/else: the message
// chain `<< ...` binds tighter than `&`, which binds tighter than `?:`, and
// Voidify makes both arms void. With no `else` inside, a macro used as the
// body of an unbraced `if` can neither capture a following `else` nor trip
// -Wdangling-else (the switch-based ambiguous-else blocker does not silence
// GCC 12).
#define TSI_LOG(severity)                                                \
  !::tsi::LogEnabled(::tsi::internal::kLog##severity)                    \
      ? (void)0                                                          \
      : ::tsi::internal::Voidify() &                                     \
            ::tsi::internal::LogMessage(::tsi::internal::kLog##severity, \
                                        __FILE__, __LINE__)

#define TSI_CHECK(cond)                  \
  (cond) ? (void)0                       \
         : ::tsi::internal::Voidify() &  \
               ::tsi::internal::CheckMessage(__FILE__, __LINE__, #cond)

#define TSI_CHECK_EQ(a, b) TSI_CHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "
#define TSI_CHECK_NE(a, b) TSI_CHECK((a) != (b)) << " (" << (a) << " vs " << (b) << ") "
#define TSI_CHECK_LE(a, b) TSI_CHECK((a) <= (b)) << " (" << (a) << " vs " << (b) << ") "
#define TSI_CHECK_LT(a, b) TSI_CHECK((a) < (b)) << " (" << (a) << " vs " << (b) << ") "
#define TSI_CHECK_GE(a, b) TSI_CHECK((a) >= (b)) << " (" << (a) << " vs " << (b) << ") "
#define TSI_CHECK_GT(a, b) TSI_CHECK((a) > (b)) << " (" << (a) << " vs " << (b) << ") "

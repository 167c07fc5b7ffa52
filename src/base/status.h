#ifndef T2M_BASE_STATUS_H
#define T2M_BASE_STATUS_H

#include <stdexcept>
#include <string>
#include <utility>

namespace t2m {

/// Error taxonomy shared by every public entry point. A failing stage tags its
/// error with the category that decides how the caller degrades: `io_error`
/// and `parse_error` reject the input, `resource_exhausted` and
/// `deadline_exceeded` are graceful give-up verdicts eligible for best-so-far
/// salvage, and `internal` is a bug.
enum class ErrorCode {
  ok = 0,
  io_error,
  parse_error,
  resource_exhausted,
  deadline_exceeded,
  internal,
};

const char* error_code_name(ErrorCode code);

/// Process exit code for a taxonomy category (`t2m` maps verdicts to these).
/// 0 = success, 1 = generic failure (kept for legacy std::exception paths),
/// 2 = usage error; the taxonomy gets the 10..14 band so scripts can
/// distinguish "bad input" from "ran out of budget".
int error_code_exit_status(ErrorCode code);

/// A verdict: either ok() or an ErrorCode plus a human-readable message.
/// Cheap to copy, never throws, usable as a return value from stages that
/// must not unwind (worker threads, C-style loops). [[nodiscard]] at the
/// type level: silently dropping a verdict is always a bug.
class [[nodiscard]] Status {
public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status IoError(std::string m) { return {ErrorCode::io_error, std::move(m)}; }
  static Status ParseError(std::string m) { return {ErrorCode::parse_error, std::move(m)}; }
  static Status ResourceExhausted(std::string m) {
    return {ErrorCode::resource_exhausted, std::move(m)};
  }
  static Status DeadlineExceeded(std::string m) {
    return {ErrorCode::deadline_exceeded, std::move(m)};
  }
  static Status Internal(std::string m) { return {ErrorCode::internal, std::move(m)}; }

  bool ok() const { return code_ == ErrorCode::ok; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "io_error: cannot open /tmp/x (No such file or directory)" — the form
  /// printed to stderr and carried by StatusError::what().
  std::string to_string() const;

private:
  ErrorCode code_ = ErrorCode::ok;
  std::string message_;
};

/// Exception carrying a Status across layers that still unwind (trace IO,
/// ingest, the SAT stack). Derives from std::runtime_error so
/// pre-taxonomy call sites that catch or EXPECT_THROW runtime_error keep
/// working unchanged.
class StatusError : public std::runtime_error {
public:
  explicit StatusError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}
  StatusError(ErrorCode code, const std::string& message)
      : StatusError(Status(code, message)) {}

  const Status& status() const { return status_; }
  ErrorCode code() const { return status_.code(); }

private:
  Status status_;
};

[[noreturn]] inline void throw_status(ErrorCode code, const std::string& message) {
  throw StatusError(code, message);
}

/// Formats "<what>: <path> (<strerror(errno_value)>)" for io_error
/// diagnostics. Reads nothing from the global errno; pass the saved value.
std::string errno_message(const std::string& what, const std::string& path,
                          int errno_value);

/// Maps any in-flight exception to a Status: StatusError keeps its taxonomy,
/// bad_alloc becomes resource_exhausted, invalid_argument becomes parse_error
/// (the pre-taxonomy convention for malformed input), anything else internal.
/// Call from inside a catch block.
Status status_from_current_exception();

}  // namespace t2m

#endif  // T2M_BASE_STATUS_H

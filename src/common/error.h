// Error handling primitives shared by every approxcode module.
//
// The library reports contract violations and unrecoverable configuration
// errors through exceptions derived from approx::Error.  Recoverable
// conditions (e.g. "this erasure pattern is not decodable") are reported
// through return values, never exceptions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <source_location>
#include <stdexcept>
#include <string>

namespace approx {

// Base class of all approxcode exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// A caller violated a documented precondition (bad k/r/g/h, misaligned
// buffer sizes, out-of-range node index, ...).  what() carries the source
// location and failed expression for developers; reason() is the bare
// message, which is what a usage error shows an end user.
class InvalidArgument : public Error {
 public:
  // `reason_at` is where the bare message starts within `what`.
  explicit InvalidArgument(const std::string& what, std::size_t reason_at = 0)
      : Error(what), reason_at_(std::min(reason_at, what.size())) {}

  const char* reason() const noexcept { return what() + reason_at_; }

 private:
  std::size_t reason_at_;
};

// Internal invariant failed; indicates a bug in approxcode itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_invalid_argument(
    const char* expr, const std::string& msg, const std::source_location& loc) {
  const std::string what = std::string(loc.file_name()) + ":" +
                           std::to_string(loc.line()) + ": requirement (" +
                           expr + ") failed: " + msg;
  throw InvalidArgument(what, what.size() - msg.size());
}

[[noreturn]] inline void throw_internal(
    const char* expr, const std::string& msg, const std::source_location& loc) {
  throw InternalError(std::string(loc.file_name()) + ":" +
                      std::to_string(loc.line()) + ": invariant (" + expr +
                      ") violated: " + msg);
}

}  // namespace detail

// Validate a documented precondition on a public API.
#define APPROX_REQUIRE(expr, msg)                              \
  do {                                                         \
    if (!(expr)) {                                             \
      ::approx::detail::throw_invalid_argument(                \
          #expr, (msg), std::source_location::current());      \
    }                                                          \
  } while (false)

// Validate an internal invariant.  Enabled in all build types: the checks
// guard linear-algebra bookkeeping whose cost is negligible next to the
// coding work itself.
#define APPROX_CHECK(expr, msg)                                \
  do {                                                         \
    if (!(expr)) {                                             \
      ::approx::detail::throw_internal(                        \
          #expr, (msg), std::source_location::current());      \
    }                                                          \
  } while (false)

}  // namespace approx

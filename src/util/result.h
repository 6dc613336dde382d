#ifndef NF2_UTIL_RESULT_H_
#define NF2_UTIL_RESULT_H_

#include <optional>
#include <utility>

#include "util/logging.h"
#include "util/status.h"

namespace nf2 {

/// A value-or-error outcome: either holds a `T` or a non-OK `Status`.
///
/// Typical use:
///
///   Result<int> Parse(const std::string& s);
///
///   Result<int> r = Parse("42");
///   if (!r.ok()) return r.status();
///   Use(*r);
template <typename T>
class Result {
 public:
  /// Constructs an errored result. `status` must not be OK.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    NF2_CHECK(!status_.ok()) << "Result constructed from OK status";
  }

  /// Constructs a successful result holding `value`.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(Result&&) noexcept = default;

  /// True iff a value is held.
  bool ok() const { return status_.ok(); }

  /// The status; OK when a value is held.
  const Status& status() const { return status_; }

  /// Accessors for the held value. It is a fatal error to dereference an
  /// errored result.
  T& operator*() & {
    NF2_CHECK(ok()) << "Dereferencing errored Result: " << status_.ToString();
    return *value_;
  }
  const T& operator*() const& {
    NF2_CHECK(ok()) << "Dereferencing errored Result: " << status_.ToString();
    return *value_;
  }
  T&& operator*() && {
    NF2_CHECK(ok()) << "Dereferencing errored Result: " << status_.ToString();
    return std::move(*value_);
  }
  T* operator->() {
    NF2_CHECK(ok()) << "Dereferencing errored Result: " << status_.ToString();
    return &*value_;
  }
  const T* operator->() const {
    NF2_CHECK(ok()) << "Dereferencing errored Result: " << status_.ToString();
    return &*value_;
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace nf2

/// Evaluates `expr` (a Result<T>); on error returns the status to the
/// caller, otherwise assigns the value to `lhs`.
#define NF2_ASSIGN_OR_RETURN(lhs, expr)            \
  NF2_ASSIGN_OR_RETURN_IMPL(                       \
      NF2_MACRO_CONCAT(nf2_result_, __LINE__), lhs, expr)

#define NF2_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) {                                \
    return tmp.status();                          \
  }                                               \
  lhs = *std::move(tmp)

#define NF2_MACRO_CONCAT_INNER(a, b) a##b
#define NF2_MACRO_CONCAT(a, b) NF2_MACRO_CONCAT_INNER(a, b)

#endif  // NF2_UTIL_RESULT_H_

/**
 * @file
 * Typed results for the recoverable edge of the qmh::api surface.
 *
 * The facade distinguishes two failure classes, mirroring logging.hh:
 * internal invariant violations stay qmh_panic (a simulator bug must
 * abort loudly), but *caller* mistakes — an out-of-range spec, a
 * mixed-kind sweep, a malformed service request — are data, not
 * crashes. Outcome<T> carries either the value or a structured Error
 * (a stable machine-readable code, a one-line message and per-item
 * details), so a CLI can print diagnostics, a service can emit an
 * error record and keep serving, and a test can assert on the code.
 */

#ifndef QMH_API_OUTCOME_HH
#define QMH_API_OUTCOME_HH

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/logging.hh"

namespace qmh {
namespace api {

/** Stable machine-readable error categories (service wire codes). */
enum class ErrorCode {
    BadRequest,      ///< malformed request (JSON, missing fields)
    InvalidSpec,     ///< a spec failed Experiment::validate()
    MixedKinds,      ///< specs of different kinds in one submission
    BadSeeds,        ///< explicit seed list does not match the specs
    ExecutionFailed, ///< an experiment threw while running
    Unavailable      ///< transport/capacity: the server refused entry
};

/** Wire name of @p code, e.g. "invalid_spec". */
inline const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::BadRequest:      return "bad_request";
      case ErrorCode::InvalidSpec:     return "invalid_spec";
      case ErrorCode::MixedKinds:      return "mixed_kinds";
      case ErrorCode::BadSeeds:        return "bad_seeds";
      case ErrorCode::ExecutionFailed: return "execution_failed";
      case ErrorCode::Unavailable:     return "unavailable";
    }
    // qmh-lint: allow(typed-errors): exhaustive-switch guard — an out-of-range enum is memory corruption, not a request failure
    qmh_panic("errorCodeName: bad ErrorCode ", static_cast<int>(code));
}

/** One recoverable failure: code, summary, per-item diagnostics. */
struct Error
{
    ErrorCode code = ErrorCode::BadRequest;
    /** One-line summary, e.g. "2 of 5 specs failed validation". */
    std::string message;
    /** Individual diagnostics (one per offending spec/field). */
    std::vector<std::string> details;

    /** Message plus every detail, "; "-joined, for logs and panics. */
    std::string
    describe() const
    {
        std::string text = message;
        for (const auto &detail : details) {
            text += "; ";
            text += detail;
        }
        return text;
    }
};

/**
 * Either a T or an Error. value()/error() panic when the alternative
 * is not held — check ok() first; accessing the wrong side is a
 * caller bug, not a recoverable condition.
 *
 * The class is [[nodiscard]]: silently dropping an Outcome drops the
 * failure with it, so the compiler flags every bare-statement call of
 * an Outcome-returning function, and the build's -Werror=unused-result
 * makes that an error. No function needs its own [[nodiscard]].
 */
template <typename T>
class [[nodiscard]] Outcome
{
  public:
    Outcome(T value) : _state(std::in_place_index<0>, std::move(value))
    {
    }

    Outcome(Error error)
        : _state(std::in_place_index<1>, std::move(error))
    {
    }

    bool ok() const { return _state.index() == 0; }
    explicit operator bool() const { return ok(); }

    T &
    value() &
    {
        requireOk();
        return std::get<0>(_state);
    }

    const T &
    value() const &
    {
        requireOk();
        return std::get<0>(_state);
    }

    T &&
    value() &&
    {
        requireOk();
        return std::get<0>(std::move(_state));
    }

    const Error &
    error() const
    {
        if (ok())
            // qmh-lint: allow(typed-errors): documented contract — reading the wrong alternative is a caller bug, not a recoverable failure
            qmh_panic("Outcome::error() on a success value");
        return std::get<1>(_state);
    }

  private:
    void
    requireOk() const
    {
        if (!ok())
            // qmh-lint: allow(typed-errors): documented contract — reading the wrong alternative is a caller bug, not a recoverable failure
            qmh_panic("Outcome::value() on an error: ",
                      std::get<1>(_state).describe());
    }

    std::variant<T, Error> _state;
};

} // namespace api
} // namespace qmh

#endif // QMH_API_OUTCOME_HH

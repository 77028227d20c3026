/**
 * @file
 * Recoverable error layer: SgcnError + Expected<T>.
 *
 * fatal() (logging.hh) exits the process, which is right at CLI
 * boundaries but wrong inside library paths: a host embedding the
 * simulator — or a test asserting on malformed input — needs the
 * error back, not an exit(1). Library entry points that can fail on
 * user-provided data return Expected<T>; the fatal()-wrapping
 * conveniences remain for tools whose only sensible reaction is a
 * diagnostic and a non-zero exit.
 */

#ifndef SGCN_SIM_ERROR_HH
#define SGCN_SIM_ERROR_HH

#include <string>
#include <utility>
#include <variant>

#include "sim/logging.hh"

namespace sgcn
{

/** Machine-checkable failure category. */
enum class ErrorCode : std::uint8_t
{
    /** A caller-supplied value is out of range or inconsistent. */
    InvalidArgument,

    /** A spec string (fault plan, synth dataset, ...) failed to
     *  parse. */
    ParseError,

    /** A file could not be opened, read, or written. */
    IoError,

    /** A file opened but its contents are malformed or truncated. */
    CorruptData,

    /** A lookup by name found nothing. */
    NotFound,

    /** A simulated chip failed and the run could not (or was asked
     *  not to) degrade around it. */
    ChipFailure,

    /** A command line names a flag the binary does not take. */
    Usage,
};

/** Human-readable code name. */
constexpr const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::InvalidArgument:
        return "invalid-argument";
      case ErrorCode::ParseError:
        return "parse-error";
      case ErrorCode::IoError:
        return "io-error";
      case ErrorCode::CorruptData:
        return "corrupt-data";
      case ErrorCode::NotFound:
        return "not-found";
      case ErrorCode::ChipFailure:
        return "chip-failure";
      case ErrorCode::Usage:
        return "usage";
    }
    return "invalid";
}

/** One recoverable failure: a category plus a diagnostic. */
struct SgcnError
{
    ErrorCode code = ErrorCode::InvalidArgument;
    std::string message;
};

/** Build an SgcnError from streamable parts (fatal()-style usage). */
template <typename... Args>
SgcnError
makeError(ErrorCode code, const Args &...args)
{
    return SgcnError{code, detail::concat(args...)};
}

/**
 * A value or an error. Deliberately tiny — ok()/value()/error() are
 * all the call sites need; accessing the wrong alternative is a
 * simulator bug and panics.
 */
template <typename T>
class Expected
{
  public:
    Expected(T value) : state(std::move(value)) {}
    Expected(SgcnError error) : state(std::move(error)) {}

    bool ok() const { return std::holds_alternative<T>(state); }

    T &
    value()
    {
        SGCN_ASSERT(ok(), "Expected::value() on an error: ",
                    std::get<SgcnError>(state).message);
        return std::get<T>(state);
    }

    const T &
    value() const
    {
        SGCN_ASSERT(ok(), "Expected::value() on an error: ",
                    std::get<SgcnError>(state).message);
        return std::get<T>(state);
    }

    const SgcnError &
    error() const
    {
        SGCN_ASSERT(!ok(), "Expected::error() on a value");
        return std::get<SgcnError>(state);
    }

    /** Unwrap at a CLI boundary: the value, or fatal(error). */
    T
    orFatal() &&
    {
        if (!ok())
            fatal(std::get<SgcnError>(state).message);
        return std::move(std::get<T>(state));
    }

  private:
    std::variant<T, SgcnError> state;
};

/** Success or an error, for operations with no value (writers). */
class Status
{
  public:
    Status() = default;
    Status(SgcnError error) : failure(std::move(error)), failed(true) {}

    static Status success() { return Status(); }

    bool ok() const { return !failed; }

    const SgcnError &
    error() const
    {
        SGCN_ASSERT(failed, "Status::error() on success");
        return failure;
    }

    /** fatal(error) at a CLI boundary unless ok(). */
    void
    orFatal() const
    {
        if (failed)
            fatal(failure.message);
    }

  private:
    SgcnError failure;
    bool failed = false;
};

} // namespace sgcn

#endif // SGCN_SIM_ERROR_HH

/**
 * @file
 * Status-code error channel of the public compilation API. The
 * internal passes keep using DCMBQC_ASSERT for invariants that can
 * only fire on library bugs; everything a *caller* can get wrong
 * (bad configuration, malformed request) is reported through
 * `Status` / `Expected<T>` instead of aborting, so a service
 * front-end can reject one request and keep serving the rest.
 */

#ifndef DCMBQC_API_STATUS_HH
#define DCMBQC_API_STATUS_HH

#include <optional>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace dcmbqc
{

/** Machine-readable error category of a failed API call. */
enum class StatusCode
{
    /** Success. */
    Ok,

    /** A request artifact is malformed (empty circuit, size
        mismatch, cyclic dependency graph...). */
    InvalidArgument,

    /** A configuration field is out of its documented domain. */
    InvalidConfig,

    /** The call sequence violates a documented precondition. */
    FailedPrecondition,

    /** A pass failed in a way that indicates a library bug. */
    Internal,

    /** The caller cancelled the request before it completed. */
    Cancelled,

    /** The request's deadline expired before it completed. */
    DeadlineExceeded,

    /** A bounded resource (admission queue...) is at capacity. */
    ResourceExhausted,

    /** The serving endpoint is draining or unreachable. */
    Unavailable,
};

/** Short stable name of a status code ("OK", "INVALID_CONFIG"...). */
const char *statusCodeName(StatusCode code);

/** " (got x)": a rejected value, to end an INVALID_CONFIG message. */
std::string gotValue(double value);

/**
 * Result of an API call that can fail: a code plus a human-readable
 * message. Default-constructed Status is OK.
 */
class Status
{
  public:
    Status() = default;

    static Status okStatus() { return Status(); }

    static Status
    invalidArgument(std::string message)
    {
        return Status(StatusCode::InvalidArgument, std::move(message));
    }

    static Status
    invalidConfig(std::string message)
    {
        return Status(StatusCode::InvalidConfig, std::move(message));
    }

    static Status
    failedPrecondition(std::string message)
    {
        return Status(StatusCode::FailedPrecondition,
                      std::move(message));
    }

    static Status
    internal(std::string message)
    {
        return Status(StatusCode::Internal, std::move(message));
    }

    static Status
    cancelled(std::string message)
    {
        return Status(StatusCode::Cancelled, std::move(message));
    }

    static Status
    deadlineExceeded(std::string message)
    {
        return Status(StatusCode::DeadlineExceeded,
                      std::move(message));
    }

    static Status
    resourceExhausted(std::string message)
    {
        return Status(StatusCode::ResourceExhausted,
                      std::move(message));
    }

    static Status
    unavailable(std::string message)
    {
        return Status(StatusCode::Unavailable, std::move(message));
    }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "INVALID_CONFIG: kmax must be >= 1" (or "OK"). */
    std::string toString() const;

  private:
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/**
 * Either a value or a non-OK Status, in the spirit of
 * std::expected (not available on the toolchains we target).
 *
 * Accessing `value()` on an error is a caller contract violation
 * and panics with the stored status message rather than invoking
 * undefined behavior; check `ok()` first.
 */
template <typename T>
class Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}

    Expected(Status status) : status_(std::move(status))
    {
        if (status_.ok()) {
            status_ = Status::internal(
                "Expected<T> constructed from OK status");
        }
    }

    bool ok() const { return value_.has_value(); }

    /** OK when a value is present. */
    const Status &status() const { return status_; }

    const T &
    value() const &
    {
        requireValue();
        return *value_;
    }

    T &
    value() &
    {
        requireValue();
        return *value_;
    }

    T &&
    value() &&
    {
        requireValue();
        return *std::move(value_);
    }

    const T &operator*() const & { return value(); }
    T &operator*() & { return value(); }
    const T *operator->() const { return &value(); }
    T *operator->() { return &value(); }

  private:
    void
    requireValue() const
    {
        if (!value_.has_value())
            panic("Expected::value() on error: ", status_.toString());
    }

    std::optional<T> value_;
    Status status_;
};

} // namespace dcmbqc

#endif // DCMBQC_API_STATUS_HH

#include "api/status.hh"

#include <sstream>

namespace dcmbqc
{

const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return "OK";
      case StatusCode::InvalidArgument: return "INVALID_ARGUMENT";
      case StatusCode::InvalidConfig: return "INVALID_CONFIG";
      case StatusCode::FailedPrecondition: return "FAILED_PRECONDITION";
      case StatusCode::Internal: return "INTERNAL";
      case StatusCode::Cancelled: return "CANCELLED";
      case StatusCode::DeadlineExceeded: return "DEADLINE_EXCEEDED";
      case StatusCode::ResourceExhausted:
        return "RESOURCE_EXHAUSTED";
      case StatusCode::Unavailable: return "UNAVAILABLE";
    }
    return "UNKNOWN";
}

std::string
gotValue(double value)
{
    std::ostringstream out;
    out << " (got " << value << ")";
    return out.str();
}

std::string
Status::toString() const
{
    if (ok())
        return "OK";
    std::string out = statusCodeName(code_);
    out += ": ";
    out += message_;
    return out;
}

} // namespace dcmbqc

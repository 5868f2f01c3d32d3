#include "trace_buffer.hh"

namespace tlat::trace
{

std::uint64_t
TraceBuffer::conditionalCount() const
{
    return conditionalView().size();
}

} // namespace tlat::trace

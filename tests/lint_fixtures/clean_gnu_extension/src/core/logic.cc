// Fixture: must lint CLEAN — logical and, rvalue references and a
// line-leading && continuation are ISO C++, not label addresses.
#include <utility>

namespace fixture
{

template <typename T>
T
pass(T &&value)
{
    return std::forward<T>(value);
}

bool
ready(bool loaded, bool parsed, bool checked)
{
    const bool both = loaded && parsed;
    return both
           && checked;
}

} // namespace fixture

// Fixture: must FIRE gnu-extension — a label-address table and a
// computed goto outside the sanctioned files (src/util/random.hh and
// src/sim/simulator.cc). __extension__ keeps -Wpedantic quiet, which
// is exactly why the linter has to confine it.
namespace fixture
{

int
dispatch(unsigned op)
{
    static const void *const kTargets[] = {
        __extension__ &&add,
        __extension__ &&sub,
    };
    __extension__({ goto *kTargets[op & 1]; });
add:
    return 1;
sub:
    return -1;
}

} // namespace fixture

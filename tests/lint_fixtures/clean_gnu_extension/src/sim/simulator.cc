// Fixture: must lint CLEAN — src/sim/simulator.cc is sanctioned: the
// threaded interpreter needs labels as values and computed goto,
// each spelled with __extension__.
namespace fixture
{

int
run(unsigned op)
{
    static const void *const kHandlers[] = {
        __extension__ &&op_add,
        __extension__ &&op_sub,
    };
    __extension__({ goto *kHandlers[op & 1]; });
op_add:
    return 1;
op_sub:
    return -1;
}

} // namespace fixture

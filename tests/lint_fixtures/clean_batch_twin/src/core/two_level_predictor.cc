// Fixture: must lint CLEAN — a view-only simulateBatch override that
// keeps the contract: the class is in the pairing manifest
// (tools/tlat_lint.py BATCH_TWIN_MANIFEST) and the reference loop
// stays reachable through the BranchPredictor::simulateBatch
// fallback over the view's records.
#include <cstdint>
#include <span>

namespace fixture
{

struct Record
{
    std::uint64_t pc;
    bool taken;
};

struct View
{
    std::span<const Record> conditionals;

    std::span<const Record> records() const { return conditionals; }
};

class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;
    virtual std::uint64_t simulateBatch(const View &view);
    std::uint64_t simulateBatch(std::span<const Record> records);
};

class TwoLevelPredictor : public BranchPredictor
{
  public:
    std::uint64_t simulateBatch(const View &view) override;
};

std::uint64_t
BranchPredictor::simulateBatch(const View &view)
{
    return simulateBatch(view.records());
}

std::uint64_t
BranchPredictor::simulateBatch(std::span<const Record> records)
{
    std::uint64_t hits = 0;
    for (const Record &record : records)
        hits += record.taken ? 1 : 0;
    return hits;
}

std::uint64_t
TwoLevelPredictor::simulateBatch(const View &view)
{
    if (view.records().size() < 4)
        return BranchPredictor::simulateBatch(view.records());
    std::uint64_t hits = 0;
    for (const Record &record : view.records())
        hits += record.taken ? 1 : 0;
    return hits;
}

} // namespace fixture

// Fixture: batch-twin must fire for the combining manifest row —
// this stand-in for CombiningPredictor overrides the predecoded-view
// entry point but never calls the reference loop
// (BranchPredictor::simulateBatch), so a mid-pair chooser memo has no
// escape hatch off the lane path.
#include <span>

namespace trace
{
struct BranchRecord;
class PredecodedView;
}
struct AccuracyCounter;

class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;
    virtual void simulateBatch(const trace::PredecodedView &view,
                               AccuracyCounter &accuracy);
    void simulateBatch(std::span<const trace::BranchRecord> records,
                       AccuracyCounter &accuracy);
};

class CombiningPredictor : public BranchPredictor
{
  public:
    void simulateBatch(const trace::PredecodedView &view,
                       AccuracyCounter &accuracy) override;

  private:
    void chooserReplay(const trace::PredecodedView &view,
                       AccuracyCounter &accuracy);
};

void
CombiningPredictor::simulateBatch(const trace::PredecodedView &view,
                                  AccuracyCounter &accuracy)
{
    // BUG under test: no reference-loop fallback.
    chooserReplay(view, accuracy);
}

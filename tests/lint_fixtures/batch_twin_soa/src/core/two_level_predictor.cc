// Fixture: batch-twin must fire for a manifest row — this stand-in
// for the manifest's TwoLevelPredictor implementation overrides the
// predecoded-view entry point but never calls the reference loop
// (BranchPredictor::simulateBatch), so unsafe predictor state
// (mid-pair memo, in-flight speculation) has no escape hatch off
// the lane path.
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

class TwoLevelPredictor : public BranchPredictor
{
  public:
    void simulateBatch(const trace::PredecodedView &view,
                       AccuracyCounter &accuracy) override;

  private:
    void fusedLoop(const trace::PredecodedView &view,
                   AccuracyCounter &accuracy);
};

void
TwoLevelPredictor::simulateBatch(const trace::PredecodedView &view,
                                 AccuracyCounter &accuracy)
{
    // BUG under test: no reference-loop fallback.
    fusedLoop(view, accuracy);
}

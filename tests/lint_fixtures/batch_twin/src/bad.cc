// Fixture: batch-twin must fire — a simulateBatch override on a
// class that is not in the pairing manifest, so nothing ties it to a
// reference-loop twin or the equivalence suite.
namespace trace
{
class PredecodedView;
}
struct AccuracyCounter;

class BasePredictor
{
  public:
    virtual ~BasePredictor() = default;
    virtual void simulateBatch(const trace::PredecodedView &view,
                               AccuracyCounter &accuracy);
};

class RogueFusedPredictor : public BasePredictor
{
  public:
    void simulateBatch(const trace::PredecodedView &view,
                       AccuracyCounter &accuracy) override;
};

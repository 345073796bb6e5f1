/**
 * @file
 * Simulated CPU core: generates memory requests separated by think
 * times, exactly the closed-network client of the paper's queuing
 * model (Figure 2). Supports the in-order blocking mode (default) and
 * the idealized out-of-order mode of Section IV-B.
 */

#ifndef FASTCAP_SIM_CORE_HPP
#define FASTCAP_SIM_CORE_HPP

#include <cstdint>
#include <optional>

#include "sim/app_profile.hpp"
#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/request.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace fastcap {

class MemoryController;

/**
 * Per-window core performance counters: the inputs of Eq. 9 plus the
 * busy/stall split used for power accounting.
 */
struct CoreCounters
{
    std::uint64_t instructions = 0; //!< TIC
    std::uint64_t misses = 0;       //!< TLM (demand reads issued)
    std::uint64_t writebacks = 0;
    std::uint64_t stalls = 0;       //!< actual core-blocking events
    std::uint64_t returns = 0;      //!< reads completed
    Seconds busyTime = 0.0;         //!< executing (think) time
    Seconds stallTime = 0.0;        //!< blocked waiting on memory
};

/**
 * One core running one application.
 *
 * The core issues a demand read after every think interval of
 * `instructionsPerMiss * cpiExec / f` seconds (lognormal-jittered),
 * waits for the line (in-order) or continues until its window fills
 * (OoO), and emits writebacks as background traffic off the critical
 * path.
 *
 * The core is the target of its own two event kinds: think-done and
 * the L2 hop that submits a demand read. Every hop takes the one
 * machine-wide l2Time, so hops go on the queue's in-order stream
 * (EventQueue::scheduleInOrder()). A core has at most one think
 * pending, so that think's (duration, instructions) lives here rather
 * than in the event.
 */
class Core final : public EventHandler, public DeliverySink
{
  public:
    Core(int id, const SimConfig &cfg, EventQueue &queue, Rng rng);

    int id() const { return _id; }

    /** Bind the application this core runs. Must precede start(). */
    void runApp(const AppProfile *app);
    const AppProfile *app() const { return _app; }

    /** Install the request sink (not owned). Must precede start(). */
    void requestSink(RequestSink *sink) { _sink = sink; }

    /**
     * Let an in-order core resolve a think inline through `ctrl` (not
     * owned), its request sink, whose queue it must share and whose
     * only client it must be: the sharded engine's lanes. When the
     * controller is empty at think-done, the think's requests (its
     * demand read and at most one writeback) meet nothing but each
     * other, so their whole paths are fixed:
     * MemoryController::resolveThink() accounts them and the core
     * draws its next think from the read's delivery time. The lane
     * then has nothing in flight, so a next think ending within the
     * queue's horizon() runs in the same call through
     * EventQueue::advanceInline(): a resolved miss costs no heap
     * traffic at all. A think that drew two or more writebacks, whose
     * read would overtake its writeback, or whose delivery would fall
     * past the horizon takes the event path, and so does a next think
     * ending past the horizon. Counters and event counts are
     * bit-identical either way.
     */
    void inlineController(MemoryController *ctrl) { _inline = ctrl; }

    /** Begin execution at the current simulated time. */
    void start();

    /** Core DVFS: set operating frequency (new thinks use it). */
    void frequency(Hertz f);
    Hertz frequency() const { return _freq; }

    /** Completed line delivered to this core. */
    void onDataReturn(const Request &req, Seconds now) override;

    /** Cumulative instructions executed (including credited). */
    double instructionsRetired() const { return _instrRetired; }

    /**
     * Advance the application position without simulating, used by
     * the epoch extrapolation (docs/DESIGN.md section 5).
     */
    void creditInstructions(double instr);

    /** Window counters since the last resetCounters(). */
    const CoreCounters &counters() const { return _counters; }
    void resetCounters() { _counters = CoreCounters{}; }

    /** Activity factor of the current phase (for power accounting). */
    double currentActivity() const;

    /** Outstanding demand misses (at most 1 when in-order). */
    int outstanding() const { return _outstanding; }

    /** True while the core is blocked waiting on memory. */
    bool stalled() const { return _stalled; }

    /**
     * Account any in-progress stall up to `now` (window boundary), so
     * cores blocked across a whole window still report stall time.
     */
    void flushStall(Seconds now);

  private:
    /** Event tags (EventHandler). */
    enum : std::uint32_t {
        kThinkDone, //!< arg unused; the pending think is in _think*
        kL2Hop,     //!< arg = the demand read's issue time
    };

    void onEvent(std::uint32_t tag, double arg) override;
    /** Draw the next think in `phase` (the one at the retired count)
     *  and return its end, `from` + its duration; `from` is now()
     *  except on the inline path. */
    Seconds drawThink(Seconds from, const Phase &phase);
    /** drawThink() and schedule the think's end. */
    void scheduleThink(Seconds from, const Phase &phase);
    void onThinkDone();
    /** The event path of a think-done at `now`: submit its writebacks
     *  and read, then stall or think on. */
    void submitThink(Seconds now, const Phase &phase, int writebacks);
    /** The inline path of onThinkDone(): the read's delivery time, or
     *  nullopt to use events. */
    std::optional<Seconds> resolveInline(Seconds now, int writebacks);
    /** Draw this think's writebacks from the core RNG and count them;
     *  the caller submits them unless it resolves the think inline.
     *  @return how many were drawn. */
    int drawWritebacks(const Phase &phase);
    int maxOutstanding(const Phase &phase) const;

    int _id = 0;
    const SimConfig &_cfg;
    EventQueue &_queue;
    Rng _rng;
    const AppProfile *_app = nullptr;
    RequestSink *_sink = nullptr;
    MemoryController *_inline = nullptr;

    Hertz _freq = 0.0;

    double _instrRetired = 0.0;
    CoreCounters _counters;

    bool _started = false;
    bool _stalled = false;
    Seconds _stallStart = 0.0;
    int _outstanding = 0;

    /** The pending think event's payload. */
    bool _thinkPending = false;
    Seconds _thinkTime = 0.0;
    double _thinkInstr = 0.0;
};

} // namespace fastcap

#endif // FASTCAP_SIM_CORE_HPP

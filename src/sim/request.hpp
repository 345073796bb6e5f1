/**
 * @file
 * Memory request descriptor flowing through the simulated memory
 * subsystem (Figure 1 of the paper): core -> bank queue -> bank
 * service -> bus queue -> bus transfer -> core. Also the two sink
 * interfaces requests travel through and the FIFO the bank and bus
 * queues hold them in.
 */

#ifndef FASTCAP_SIM_REQUEST_HPP
#define FASTCAP_SIM_REQUEST_HPP

#include <cstdint>

#include "util/ring_fifo.hpp"
#include "util/units.hpp"

namespace fastcap {

/** Kind of memory traffic. */
enum class RequestType : std::uint8_t {
    Read,       //!< demand miss; blocks the issuing core (in-order)
    Writeback,  //!< background traffic; occupies bank+bus only
};

/**
 * A single memory transaction.
 *
 * Requests are small value types owned by the bank/bus queues as they
 * move through the subsystem.
 */
struct Request
{
    RequestType type = RequestType::Read;
    int coreId = -1;          //!< issuing core
    int bankId = -1;          //!< bank within the controller
    Seconds issueTime = 0.0;  //!< when the core generated it
    Seconds arriveTime = 0.0; //!< when it entered the bank queue
};

/** Where a core sends the requests it generates. */
class RequestSink
{
  public:
    virtual void submit(Request req) = 0;

  protected:
    ~RequestSink() = default;
};

/** Where a controller delivers completed demand reads. */
class DeliverySink
{
  public:
    virtual void onDataReturn(const Request &req, Seconds now) = 0;

  protected:
    ~DeliverySink() = default;
};

/**
 * FIFO the bank and bus queues hold their requests in. Eight first
 * slots cover most queue depths, so a warmed-up window seldom grows
 * one (tests/harness/test_step_alloc.cpp).
 */
using RequestFifo = RingFifo<Request, 8>;

} // namespace fastcap

#endif // FASTCAP_SIM_REQUEST_HPP

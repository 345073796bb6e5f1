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
#include <vector>

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
 * FIFO of requests on a power-of-two ring. It grows by doubling and
 * never shrinks, so a queue whose depth has peaked allocates nothing
 * more.
 */
class RequestFifo
{
  public:
    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }

    /** The head; the queue must not be empty. */
    Request &front() { return _buf[_head]; }

    void
    push(const Request &req)
    {
        if (_size == _buf.size())
            grow();
        _buf[(_head + _size) & (_buf.size() - 1)] = req;
        ++_size;
    }

    /** Remove and return the head; the queue must not be empty. */
    Request
    pop()
    {
        const Request req = _buf[_head];
        _head = (_head + 1) & (_buf.size() - 1);
        --_size;
        return req;
    }

  private:
    void
    grow()
    {
        std::vector<Request> bigger(_buf.empty() ? 8 : 2 * _buf.size());
        for (std::size_t i = 0; i < _size; ++i)
            bigger[i] = _buf[(_head + i) & (_buf.size() - 1)];
        _buf.swap(bigger);
        _head = 0;
    }

    std::vector<Request> _buf;
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace fastcap

#endif // FASTCAP_SIM_REQUEST_HPP

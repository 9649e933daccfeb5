/*
 * A test-only stand-in for the MPI subset that emitted barriers use:
 * MPI_Comm_rank, MPI_Irecv, MPI_Issend and MPI_Waitall on zero-byte
 * messages. The ranks are threads of one process (driver.c implements
 * the functions and runs the ranks).
 *
 * Each ordered pair (src, dst) has a signal counter and an
 * acknowledgement counter. MPI_Issend bumps the signal counter. A receive
 * completes in MPI_Waitall once the signal counter reaches it, and then
 * acknowledges; a synchronous send completes once its acknowledgement
 * arrives. Counts only grow, so the counters carry over from one barrier
 * call to the next, as an MPI library's matching does.
 */
#ifndef HBAR_TEST_MPI_H
#define HBAR_TEST_MPI_H

#include <stdatomic.h>

typedef int MPI_Datatype;
#define MPI_BYTE 1

typedef struct { int unused; } MPI_Status;
#define MPI_STATUSES_IGNORE ((MPI_Status *)0)

/* A request waits until `counter` reaches `target`; a receive then bumps
 * `ack`, which a send leaves null. */
typedef struct {
    atomic_uint *counter;
    unsigned target;
    atomic_uint *ack;
} MPI_Request;

/* The communicator is the calling rank's own handle. */
typedef struct hbar_rank *MPI_Comm;

int MPI_Comm_rank(MPI_Comm comm, int *rank);
int MPI_Irecv(void *buf, int count, MPI_Datatype type, int source, int tag, MPI_Comm comm,
              MPI_Request *request);
int MPI_Issend(const void *buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm,
               MPI_Request *request);
int MPI_Waitall(int count, MPI_Request *requests, MPI_Status *statuses);

#endif

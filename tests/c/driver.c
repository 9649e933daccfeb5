/*
 * Runs emitted barriers under the paper's §VI check, one thread per rank.
 *
 * The including translation unit first includes this file, then the
 * emitted sources, then defines the table of barriers it holds:
 *
 *     const struct hbar_case hbar_cases[] = {{"name", ranks, function}, ...};
 *     const int hbar_ncases = ...;
 *
 * Usage: driver DELAY_US [CASE...] runs the named cases (all if none), in
 * order. A barrier of P ranks is called P times in one world, so the
 * counters of mpi.h carry over between calls; before call d, rank d
 * sleeps DELAY_US. A rank that leaves call d before rank d entered it,
 * by CLOCK_MONOTONIC, left early. A watchdog reports a stall: no rank
 * runs, each is parked between calls or waits on a counter below its
 * target, and no counter moves, for STALL_POLLS polls in a row.
 *
 * Prints one line per case: "ok NAME", or "early NAME call D rank R ..."
 * per early exit; a stall prints "stall NAME call D: ..." naming what each
 * stuck rank waits for, and exits 3. Exit status 1 means early exits,
 * 2 a usage error.
 */
#include <errno.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#include "mpi.h"

struct hbar_case {
    const char *name;
    int ranks;
    void (*barrier)(MPI_Comm comm);
};
extern const struct hbar_case hbar_cases[];
extern const int hbar_ncases;

enum { RUNNING, WAITING, PARKED };
#define POLL_NS 1000000L
#define STALL_POLLS 20

struct hbar_world {
    int p;
    atomic_uint *sig; /* sig[src * p + dst]: signals sent src -> dst */
    atomic_uint *ack; /* ack[src * p + dst]: of those, received by dst */
    atomic_uint moves; /* bumped with every counter */
};

struct hbar_rank {
    struct hbar_world *world;
    int rank;
    unsigned *sent;   /* signals sent to each peer, all calls so far */
    unsigned *posted; /* receives posted from each peer, likewise */
    /* Published for the watchdog: the counter waited on, and until what. */
    atomic_int state;
    _Atomic(atomic_uint *) wait_on;
    atomic_uint wait_for;
};

static _Thread_local struct hbar_rank *self;

static void bump(atomic_uint *counter)
{
    atomic_fetch_add(counter, 1);
    atomic_fetch_add(&self->world->moves, 1);
}

int MPI_Comm_rank(MPI_Comm comm, int *rank)
{
    *rank = comm->rank;
    return 0;
}

int MPI_Irecv(void *buf, int count, MPI_Datatype type, int source, int tag, MPI_Comm comm,
              MPI_Request *request)
{
    (void)buf, (void)count, (void)type, (void)tag;
    size_t pair = (size_t)source * comm->world->p + comm->rank;
    *request = (MPI_Request){&comm->world->sig[pair], ++comm->posted[source],
                             &comm->world->ack[pair]};
    return 0;
}

int MPI_Issend(const void *buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm,
               MPI_Request *request)
{
    (void)buf, (void)count, (void)type, (void)tag;
    size_t pair = (size_t)comm->rank * comm->world->p + dest;
    bump(&comm->world->sig[pair]);
    *request = (MPI_Request){&comm->world->ack[pair], ++comm->sent[dest], 0};
    return 0;
}

int MPI_Waitall(int count, MPI_Request *requests, MPI_Status *statuses)
{
    (void)statuses;
    for (int i = 0; i < count; i++) {
        MPI_Request *r = &requests[i];
        atomic_store(&self->wait_for, r->target);
        atomic_store(&self->wait_on, r->counter);
        atomic_store(&self->state, WAITING);
        while (atomic_load(r->counter) < r->target)
            sched_yield();
        atomic_store(&self->state, RUNNING);
        if (r->ack)
            bump(r->ack);
    }
    return 0;
}

static const struct hbar_case *current;
static struct hbar_world world;
static struct hbar_rank *ranks;
static pthread_barrier_t gate;
static long delay_us;
static atomic_int call; /* the call under way, for the stall report */
static atomic_int finished;
static int64_t *entered; /* entered[d]: when rank d entered call d */
static int64_t *left;    /* left[d * p + r]: when rank r left call d */

static int64_t now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

static void park(struct hbar_rank *r)
{
    atomic_store(&r->state, PARKED);
    pthread_barrier_wait(&gate);
    atomic_store(&r->state, RUNNING);
}

static void *rank_main(void *arg)
{
    struct hbar_rank *r = arg;
    int p = world.p;
    self = r;
    for (int d = 0; d < p; d++) {
        park(r);
        if (r->rank == d) {
            atomic_store(&call, d);
            struct timespec t = {delay_us / 1000000, delay_us % 1000000 * 1000};
            while (nanosleep(&t, &t) == EINTR)
                ;
            entered[d] = now_ns();
        }
        current->barrier(r);
        left[(size_t)d * p + r->rank] = now_ns();
    }
    park(r);
    return 0;
}

/* Whether rank r waits on a counter that stands below its target. */
static int blocked(struct hbar_rank *r)
{
    if (atomic_load(&r->state) != WAITING)
        return 0;
    return atomic_load(atomic_load(&r->wait_on)) < atomic_load(&r->wait_for);
}

/* Stuck: no rank runs, at least one waits, and no counter moved. */
static int stuck(unsigned *moves)
{
    unsigned before = atomic_load(&world.moves);
    int waiting = 0;
    for (int i = 0; i < world.p; i++) {
        int state = atomic_load(&ranks[i].state);
        if (state == RUNNING || (state == WAITING && !blocked(&ranks[i])))
            return 0;
        waiting += state == WAITING;
    }
    int same = before == *moves && atomic_load(&world.moves) == before;
    *moves = before;
    return waiting > 0 && same;
}

static void *watchdog(void *arg)
{
    (void)arg;
    unsigned moves = atomic_load(&world.moves);
    struct timespec poll = {0, POLL_NS};
    for (int quiet = 0; quiet < STALL_POLLS; quiet = stuck(&moves) ? quiet + 1 : 0) {
        if (atomic_load(&finished))
            return 0;
        nanosleep(&poll, 0);
    }
    int p = world.p;
    printf("stall %s call %d:", current->name, atomic_load(&call));
    for (int i = 0; i < p; i++) {
        if (!blocked(&ranks[i]))
            continue;
        atomic_uint *c = atomic_load(&ranks[i].wait_on);
        if (c >= world.sig && c < world.sig + (size_t)p * p)
            printf(" rank %d waits for a signal from %d;", i, (int)((c - world.sig) / p));
        else
            printf(" rank %d waits for rank %d to take its signal;", i, (int)((c - world.ack) % p));
    }
    printf("\n");
    fflush(stdout);
    _exit(3);
}

/* Runs one case; returns its number of early exits. */
static int run_case(const struct hbar_case *c)
{
    int p = c->ranks;
    current = c;
    world = (struct hbar_world){p, calloc((size_t)p * p, sizeof(atomic_uint)),
                                calloc((size_t)p * p, sizeof(atomic_uint)), 0};
    ranks = calloc(p, sizeof *ranks);
    entered = calloc(p, sizeof *entered);
    left = calloc((size_t)p * p, sizeof *left);
    pthread_t *threads = calloc(p, sizeof *threads);
    pthread_t dog;
    pthread_barrier_init(&gate, 0, p);
    for (int i = 0; i < p; i++) {
        ranks[i] = (struct hbar_rank){&world, i, calloc(p, sizeof(unsigned)),
                                      calloc(p, sizeof(unsigned)), RUNNING, 0, 0};
    }
    atomic_store(&finished, 0);
    pthread_create(&dog, 0, watchdog, 0);
    for (int i = 0; i < p; i++)
        pthread_create(&threads[i], 0, rank_main, &ranks[i]);
    for (int i = 0; i < p; i++)
        pthread_join(threads[i], 0);
    atomic_store(&finished, 1);
    pthread_join(dog, 0);
    int early = 0;
    for (int d = 0; d < p; d++) {
        for (int r = 0; r < p; r++) {
            int64_t ahead = entered[d] - left[(size_t)d * p + r];
            if (ahead > 0) {
                printf("early %s call %d rank %d left %lld us before rank %d entered\n", c->name, d,
                       r, (long long)(ahead / 1000), d);
                early++;
            }
        }
    }
    if (!early)
        printf("ok %s\n", c->name);
    fflush(stdout);
    pthread_barrier_destroy(&gate);
    for (int i = 0; i < p; i++) {
        free(ranks[i].sent);
        free(ranks[i].posted);
    }
    free(world.sig), free(world.ack), free(ranks), free(entered), free(left), free(threads);
    return early;
}

int main(int argc, char **argv)
{
    if (argc < 2)
        return fprintf(stderr, "usage: %s DELAY_US [CASE...]\n", argv[0]), 2;
    delay_us = atol(argv[1]);
    int early = 0;
    for (int i = 0; i < hbar_ncases; i++) {
        int wanted = argc == 2;
        for (int a = 2; a < argc; a++)
            wanted |= strcmp(argv[a], hbar_cases[i].name) == 0;
        if (wanted)
            early += run_case(&hbar_cases[i]);
    }
    return early ? 1 : 0;
}

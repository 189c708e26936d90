/* Hostile clause arithmetic: a divisor that is zero on every rank.
 * repro-lint must answer with a CI032 diagnostic in bounded time,
 * never a hang or a traceback (clause arithmetic is held to C int64;
 * see docs/LINT.md). */
double x[16];
double y[16];
int rank, nprocs;

#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)/(rank-rank)) sbuf(x) rbuf(y)
{
}

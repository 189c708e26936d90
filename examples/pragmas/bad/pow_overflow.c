/* Hostile clause arithmetic: a power whose exact value has billions of
 * digits (computing it would run for minutes).
 * repro-lint must answer with a CI032 diagnostic in bounded time,
 * never a hang or a traceback (clause arithmetic is held to C int64;
 * see docs/LINT.md). */
double x[16];
double y[16];
int rank, nprocs;

#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+7)**(10**9)%nprocs) sbuf(x) rbuf(y)
{
}

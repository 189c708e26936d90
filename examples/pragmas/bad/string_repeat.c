/* Hostile clause constant: a string where a rank belongs. Repeated,
 * it is a str the rank checks choke on (and the 'x'*(10**10) form
 * would ask for 10 GB).
 * repro-lint must answer with a CI032 diagnostic, never a traceback:
 * clause expressions admit numeric constants only (see docs/LINT.md). */
double x[16];
double y[16];
int rank, nprocs;

#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver(('xy'*3)) sbuf(x) rbuf(y)
{
}

package sched

// jobQueue is the admission queue's ordering: a heap keyed by priority
// (higher first) with the admission sequence number as tiebreak, so
// dispatch is FIFO within each priority class and deterministic for a
// fixed submission order.
type jobQueue []*Job

func (j *Job) before(k *Job) bool {
	if j.Priority != k.Priority {
		return j.Priority > k.Priority
	}
	return j.seq < k.seq
}

func (q jobQueue) Len() int { return len(q) }

func (q jobQueue) Less(i, j int) bool { return q[i].before(q[j]) }

func (q jobQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *jobQueue) Push(x any) {
	j := x.(*Job)
	j.index = len(*q)
	*q = append(*q, j)
}

func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*q = old[:n-1]
	return j
}

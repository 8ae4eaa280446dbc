package perfbench

/** Per-layer metrics of one traced pass.
  *
  * Jobs are attributed to the sequential phases (interestingness, partition)
  * by time window, not by job group: `Scoring.pool` threads copy Spark's
  * local properties, job group included, when they are created and keep
  * them. Contribution jobs are attributed by the job group the replay sets
  * inside each pair's future.
  */
object Layers {

  def metrics(outs: Seq[ReplayOut], jobs: Seq[JobRecord], overheadS: Double): Seq[(String, Double, String)] = {
    def phase(o: ReplayOut, name: String): Seq[Span] = o.spans.filter(_.name == name)
    def inWindow(s: Span): Seq[JobRecord] =
      jobs.filter(j => j.startMs >= math.floor(s.startMs) && j.startMs <= s.endMs)
    def wall(name: String): Double = outs.flatMap(phase(_, name)).map(_.seconds).sum
    def windowTotals(name: String): JobTotals = JobTotals.of(outs.flatMap(phase(_, name)).flatMap(inWindow).distinct)
    def ratio(n: Double, d: Double): Double = if (d == 0) 0.0 else n / d

    val interest = windowTotals("interestingness")
    val part     = windowTotals("partition")
    val pairs    = outs.flatMap(_.pairs)
    val pairJobs = pairs.map { case (span, group) => span -> jobs.filter(_.group.contains(group)) }
    val contrib  = JobTotals.of(pairJobs.flatMap(_._2))
    val busyS    = pairs.map(_._1.seconds).sum
    val sparkS   = pairJobs.map { case (span, js) =>
      Trace.covered(js.map(j => (j.startMs.toDouble, j.endMs.toDouble)), span.startMs, span.endMs) / 1000.0
    }.sum
    val candidates = outs.map(_.result.candidates.size).sum
    val skyline    = outs.map(_.result.skyline.size).sum

    Seq(
      ("interestingness.wall_s", wall("interestingness"), "s"),
      ("interestingness.jobs", interest.jobs.toDouble, "jobs"),
      ("interestingness.shuffle_mb", interest.shuffleMb, "MB"),
      ("interestingness.result_kb", interest.resultBytes / 1e3, "kB"),
      ("interestingness.columns", outs.map(_.columns).sum.toDouble, "count"),
      ("partition.wall_s", wall("partition"), "s"),
      ("partition.jobs", part.jobs.toDouble, "jobs"),
      ("partition.targets", outs.map(_.targets).sum.toDouble, "count"),
      ("partition.built", outs.map(_.built).sum.toDouble, "count"),
      ("partition.distinct_ratio", ratio(outs.map(_.distinct).sum, outs.map(_.built).sum), "share"),
      ("contribution.wall_s", wall("contribution"), "s"),
      ("contribution.busy_s", busyS, "s"),
      ("contribution.spark_s", sparkS, "s"),
      ("contribution.driver_s", busyS - sparkS, "s"),
      ("contribution.jobs", contrib.jobs.toDouble, "jobs"),
      ("contribution.tasks", contrib.tasks.toDouble, "tasks"),
      ("contribution.shuffle_mb", contrib.shuffleMb, "MB"),
      ("contribution.result_kb", contrib.resultBytes / 1e3, "kB"),
      ("contribution.pairs", pairs.size.toDouble, "count"),
      ("contribution.positive_ratio", ratio(candidates, outs.map(_.setsScored).sum), "share"),
      ("skyline.wall_s", wall("skyline"), "s"),
      ("skyline.kept_ratio", ratio(skyline, candidates), "share"),
      ("caption.wall_s", wall("caption"), "s"),
      ("trace.overhead_s", overheadS, "s"))
  }
}

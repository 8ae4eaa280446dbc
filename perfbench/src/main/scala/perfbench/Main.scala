package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import java.util.concurrent.{ExecutionException, Executors, ThreadFactory, TimeUnit, TimeoutException}
import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession
import repro.core.{Fedex, FedexConfig, FedexResult, Step}
import scala.collection.mutable.ArrayBuffer

/** The explain benchmark: a closed loop with one client that runs
  * `Fedex.explain` over one workload's queries, pass after pass.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * Set-up is session start plus the workload's frames generated and cached,
  * repeated `SetupRounds` times (the median counts), plus one warm-up pass.
  * The warm-up results are checked (`Checks`), and every timed pass must
  * return their skylines. Timed passes then run for `--seconds`, and until
  * `MinTimedExplains` explains are timed. With `--trace 1` one more pass
  * replays explain with spans (`Replay`), sampling fidelity is scored
  * against exact FEDEX (`Fidelity`), and the per-layer metrics are printed
  * instead of the end-to-end ones. The last stdout line is the result
  * object; the full record goes to `--out`.
  */
object Main {

  /** Spark's local[k] cores: at most 4, fewer on a smaller machine. */
  val MaxCores = 4
  /** Fixed, so task counts do not follow the machine. */
  val ShufflePartitions = 8
  val SetupRounds = 3
  /** Timed explains per run, at least: a one-query workload times two passes,
    * so the first timed explain's leftover JIT warm-up is not the whole sample.
    */
  val MinTimedExplains = 2
  /** Per-explain deadline, about three times the slowest cold explain. */
  val DeadlineS = 60.0

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: String, commit: String, sourceHash: String)

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val seconds = need("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Args(need("workload"), need("seed").toLong, seconds, trace, need("out"),
      m.getOrElse("commit", "unknown"), m.getOrElse("source-hash", "unknown"))
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parse(argv))
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.out.flush()
    // Scoring.pool in the program is a fixed pool of non-daemon threads that
    // is never shut down; without an explicit exit the JVM would not end.
    System.exit(code)
  }

  private def now: Double = System.nanoTime() / 1e9

  private val mapper = new ObjectMapper().registerModule(DefaultScalaModule)
  private def json(v: Any): String = mapper.writeValueAsString(v)

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def session(cores: Int, localDir: String): SparkSession =
    SparkSession.builder.master(s"local[$cores]").appName("fedex-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .getOrCreate()

  /** Runs explains on one daemon thread so a deadline can abandon one. */
  final class Explainer(sc: SparkContext, deadlineS: Double) {
    private val thread = Executors.newSingleThreadExecutor(new ThreadFactory {
      def newThread(r: Runnable): Thread = { val t = new Thread(r, "perfbench-explain"); t.setDaemon(true); t }
    })
    @volatile var stuck = false

    /** The result, or why the explain failed. On a deadline miss the jobs are
      * cancelled; `stuck` is set if the explain still does not return.
      */
    def apply(step: Step, cfg: FedexConfig): Either[String, FedexResult] = {
      val f = thread.submit(() => Fedex.explain(step, cfg))
      try Right(f.get((deadlineS * 1000).toLong, TimeUnit.MILLISECONDS))
      catch {
        case _: TimeoutException =>
          sc.cancelAllJobs()
          try f.get(30, TimeUnit.SECONDS) catch { case _: TimeoutException => stuck = true; case _: Throwable => }
          Left(s"deadline of ${deadlineS}s passed")
        case e: ExecutionException => Left(String.valueOf(e.getCause))
      }
    }
  }

  final case class QueryRun(label: String, seconds: Double, jobs: Int)
  final case class Pass(seconds: Double, totals: JobTotals, queries: Seq[QueryRun])

  def run(a: Args): Int = {
    val w = Workloads.named(a.workload)
    val cores = math.min(Runtime.getRuntime.availableProcessors(), MaxCores)
    val localDir = new java.io.File(a.out, "spark-local").getAbsolutePath
    val problems = ArrayBuffer.empty[String]
    var attempted = 0
    var failed = 0
    def fail(what: String): Unit = { failed += 1; problems += what; Console.err.println(s"[perfbench] FAILED: $what") }

    // ---- set-up: session start and frames generated and cached, repeated;
    // the last round's session stays and runs the one warm-up pass.
    val roundTimes = ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var listener: BenchListener = null
    var inst: Instance = null
    for (_ <- 1 to SetupRounds) {
      if (spark != null) spark.stop()
      val t0 = now
      spark = session(cores, localDir)
      listener = BenchListener.install(spark.sparkContext)
      inst = Workloads.instantiate(spark, w, a.seed)
      inst.steps.foreach { case (_, st) => st.inputs.foreach(_.count()) }
      roundTimes += now - t0
    }
    val sc = spark.sparkContext
    val explainer = new Explainer(sc, DeadlineS)
    val warmT0 = now
    val warm: Seq[Option[FedexResult]] = inst.steps.map { case (q, st) =>
      attempted += 1
      explainer(st, inst.config(q)) match {
        case Right(r)  => Some(r)
        case Left(why) => fail(s"${q.label} warm-up: $why"); None
      }
    }
    val warmS = now - warmT0
    val setupS = median(roundTimes.toSeq) + warmS

    // ---- output checks, outside the timed passes.
    val checkT0 = now
    inst.steps.zip(warm).foreach {
      case ((q, st), Some(res)) =>
        val found = Checks.skyline(res) ++ Checks.contributions(st, inst.config(q), res)
        if (found.nonEmpty) fail(s"${q.label} output check: ${found.mkString("; ")}")
      case _ =>
    }
    val checkS = now - checkT0

    // ---- timed passes.
    listener.sync()
    val inputBytes = listener.storageBytes
    listener.resetStoragePeak()
    val passes = ArrayBuffer.empty[Pass]
    val loopT0 = now
    while ((passes.size * inst.steps.size < MinTimedExplains || now - loopT0 < a.seconds) && !explainer.stuck) {
      val before = listener.jobs.size
      val windows = ArrayBuffer.empty[(String, Double, Long, Long)]
      val p0 = now
      inst.steps.zip(warm).foreach { case ((q, st), ref) =>
        attempted += 1
        val (ms0, q0) = (System.currentTimeMillis(), now)
        val r = explainer(st, inst.config(q))
        windows += ((q.label, now - q0, ms0, System.currentTimeMillis()))
        r match {
          case Left(why) => fail(s"${q.label} pass ${passes.size + 1}: $why")
          case Right(res) =>
            val keys = res.skyline.map(_.candidate.key)
            if (!ref.map(_.skyline.map(_.candidate.key)).contains(keys))
              fail(s"${q.label} pass ${passes.size + 1}: skyline ${keys.mkString(",")} differs from the checked run")
        }
      }
      val wall = now - p0
      listener.sync()
      val jobs = listener.jobs.drop(before)
      val perQuery = windows.toSeq.map { case (label, s, ms0, ms1) =>
        QueryRun(label, s, jobs.count(j => j.startMs >= ms0 && j.startMs <= ms1))
      }
      passes += Pass(wall, JobTotals.of(jobs), perQuery)
    }
    listener.sync()
    val cachePeakMb = listener.storagePeakBytes / 1e6

    val passS = median(passes.map(_.seconds).toSeq)
    val endToEnd: Seq[(String, Double, String)] = Seq(
      ("pass_s", passS, "s"),
      ("setup_s", setupS, "s"),
      ("spark_jobs", median(passes.map(_.totals.jobs.toDouble).toSeq), "jobs/pass"),
      ("spark_tasks", median(passes.map(_.totals.tasks.toDouble).toSeq), "tasks/pass"),
      ("shuffle_mb", median(passes.map(_.totals.shuffleMb).toSeq), "MB/pass"),
      ("result_mb", median(passes.map(_.totals.resultMb).toSeq), "MB/pass"),
      ("cache_mb_peak", cachePeakMb, "MB"))

    // ---- traced run: one replayed pass with spans, then sampling fidelity.
    var refS = 0.0
    val traced: Option[(Seq[(String, Double, String)], Seq[Span], Boolean)] =
      if (!a.trace) None
      else if (explainer.stuck) { problems += "an explain is still running past its deadline; no traced pass"; None }
      else {
        val tracer = new Tracer
        listener.sync()
        val before = listener.jobs.size
        val t0 = now
        val outs = inst.steps.zipWithIndex.map { case ((q, st), i) =>
          q -> Replay.explain(st, inst.config(q), sc, tracer, i + 1)
        }
        val tracedS = now - t0
        listener.sync()
        val jobs = listener.jobs.drop(before)
        val same = outs.zip(warm).forall { case ((_, o), ref) => ref.exists(Replay.sameResult(o.result, _)) }
        if (!same) problems += "the replay's candidates or skyline differ from Fedex.explain; per-layer numbers unavailable"
        val refT0 = now
        val fidelity = Fidelity.score(inst, warm, explainer, problems)
        refS = now - refT0
        Some((Layers.metrics(outs.map(_._2), jobs, tracedS - passS) ++ fidelity, tracer.all, same))
      }

    val correct = failed == 0 && problems.isEmpty
    val metrics: Seq[(String, Double, String)] = traced match {
      case None                     => endToEnd
      case Some((perLayer, _, true)) => perLayer
      case Some(_)                  => Seq.empty
    }

    val env = Map(
      "local_cores" -> cores, "nproc" -> Runtime.getRuntime.availableProcessors(),
      "heap_mb" -> Runtime.getRuntime.maxMemory() / (1024 * 1024),
      "shuffle_partitions" -> ShufflePartitions, "spark" -> spark.version,
      "jdk" -> System.getProperty("java.version"), "commit" -> a.commit, "source_sha256" -> a.sourceHash)
    val detail = Map(
      "workload" -> w.name, "seed" -> a.seed, "trace" -> a.trace, "env" -> env,
      "scale" -> Map("spotify" -> inst.scale.spotifyRows, "bank" -> inst.scale.bankRows,
        "products" -> inst.scale.productsRows, "sales" -> inst.scale.salesRows),
      "passes" -> passes.size, "pass_s" -> passes.map(_.seconds),
      "setup_rounds_s" -> roundTimes, "warmup_s" -> warmS, "check_s" -> checkS, "reference_s" -> refS,
      "input_cache_mb" -> inputBytes / 1e6,
      "cache_mb_above_inputs" -> (listener.storagePeakBytes - inputBytes) / 1e6,
      "fail_rate" -> failed.toDouble / math.max(attempted, 1),
      "queries" -> passes.flatMap(_.queries).groupBy(_.label).toSeq.sortBy(_._1).map { case (l, rs) =>
        Map("query" -> l, "explain_s" -> median(rs.map(_.seconds).toSeq), "jobs" -> median(rs.map(_.jobs.toDouble).toSeq))
      },
      "problems" -> problems, "end_to_end" -> endToEnd.map(m => m._1 -> m._2).toMap,
      "per_layer" -> traced.map(_._1.map(m => m._1 -> m._2).toMap),
      "spans" -> traced.map { case (_, spans, _) => spans.map(s => Map("id" -> s.id, "name" -> s.name,
        "explain" -> s.explainId, "parent" -> s.parent, "start_ms" -> s.startMs, "end_ms" -> s.endMs,
        "self_ms" -> Trace.selfMs(s, spans)))
      })
    val outFile = new java.io.File(a.out, s"${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json")
    java.nio.file.Files.writeString(outFile.toPath, json(detail) + "\n")

    println(s"perfbench ${w.name} seed=${a.seed} passes=${passes.size} " +
      s"per-query=${json(detail("queries"))} env=${json(env)} record=${outFile.getName}")
    problems.foreach(p => println(s"perfbench problem: $p"))
    println(json(Map(
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> scala.collection.immutable.ListMap(metrics.map { case (n, v, u) =>
        n -> scala.collection.immutable.ListMap("value" -> v, "unit" -> u) }: _*))))
    spark.stop()
    0
  }
}

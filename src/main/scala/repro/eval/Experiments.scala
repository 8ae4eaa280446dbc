package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines.{Rath, SeeDb}
import repro.core._
import repro.data.{BenchQuery, DataScale, Frames, Queries}

import scala.collection.immutable.ListMap

/** Every reproduced table and figure, defined once: its queries, frame
  * scales, swept values, config and table format. The bench suites (`bench/`)
  * and `repro.jobs.RunExperiment` run the same [[Figure]] and print the same
  * table. `BENCH_SALES_ROWS` and `BENCH_SPOTIFY_ROWS` (through
  * [[DataScale.bench]]) are the only settings.
  */
object Experiments {

  /** One printed table of a reproduced figure: `run` computes its rows from
    * frames at the scales it names, `cells` renders a row. Title and headers
    * are ASCII, so they print the same under any platform charset.
    */
  final class Figure[R](val title: String, val headers: Seq[String], cells: R => Seq[String])(
      run: (DataScale => Frames) => Seq[R]) {
    /** Run the figure, print its table and return its rows. Frames are built
      * per run; Spark's cache manager shares the cached data of equal frames.
      */
    def apply(spark: SparkSession): Seq[R] = {
      val rows   = run(new Frames(spark, _))
      val all    = headers +: rows.map(cells)
      val widths = headers.indices.map(i => all.map(_(i).length).max)
      def fmt(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
      println()
      println(s"=== $title ===")
      println(fmt(headers))
      println(widths.map("-" * _).mkString("|-", "-|-", "-|"))
      all.tail.foreach(r => println(fmt(r)))
      println()
      rows
    }
  }

  /** The FEDEX configuration of every experiment (paper: n ∈ {5, 10}). */
  val cfg: FedexConfig = FedexConfig(nSets = Seq(5, 10), topKColumns = 5)
  private val sampled = cfg.copy(sampleRows = Some(5000))

  private def f3(x: Double): String = f"$x%.3f"
  private def f2(x: Double): String = f"$x%.2f"

  private def select(fr: Frames, nums: Seq[Int]): Seq[BenchQuery] = {
    val all = Queries.all(fr)
    nums.map(n => all.find(_.num == n).get)
  }

  /** Small frames apart from the full Products table, for sweeping one size. */
  private def small(spotify: Long = 1000, bank: Long = 1000, sales: Long = 1000): DataScale =
    DataScale(spotifyRows = spotify, bankRows = bank, productsRows = 9977, salesRows = sales)

  private final case class Timed[T](value: T, seconds: Double)

  private def time[T](f: => T): Timed[T] = {
    val t0 = System.nanoTime()
    val v  = f
    Timed(v, (System.nanoTime() - t0) / 1e9)
  }

  // ------------------------------------------------- Tables 2 & 3 (queries)

  final case class QueryRow(num: Int, dataset: String, kind: String,
                            topColumn: String, topScore: Double, skylineSize: Int,
                            topCaption: String, seconds: Double)

  /** Tables 2 & 3: all 30 queries through FEDEX-SAMPLING(5K) at bench scale;
    * per query its most interesting column and top skyline explanation (the
    * Example 3.2/3.10-style numbers) and the wall time.
    */
  val tables23: Figure[QueryRow] = new Figure[QueryRow]("Tables 2-3 | FEDEX-SAMPLING(5K) over all 30 queries",
    Seq("q", "dataset", "kind", "top column", "I", "sky", "time(s)", "top explanation"),
    r => Seq(r.num.toString, r.dataset, r.kind, r.topColumn, f3(r.topScore),
      r.skylineSize.toString, f2(r.seconds), r.topCaption.take(110)))(frames =>
    Queries.all(frames(DataScale.bench)).map { q =>
      val t = time(Fedex.explain(q.step, sampled))
      val (topCol, topScore) = t.value.columnScores.toSeq
        .sortBy { case (a, s) => (-s, a) }.headOption.getOrElse(("-", 0.0))
      val caption = t.value.skyline.headOption.map(_.caption).getOrElse("(no positive-contribution set)")
      QueryRow(q.num, q.dataset, q.kind, topCol, topScore, t.value.skyline.size, caption, t.seconds)
    })

  // ------------------------------------------------------ Figures 7 & 8

  final case class AccuracyRow(label: String, precisionAt3: Double,
                               kendallTau: Double, ndcg: Double, queries: Int)

  private def accuracyFigure(title: String, first: String)(run: (DataScale => Frames) => Seq[AccuracyRow]) =
    new Figure[AccuracyRow](title, Seq(first, "precision@3", "kendall-tau", "nDCG", "queries"),
      r => Seq(r.label, f3(r.precisionAt3), f2(r.kendallTau), f3(r.ndcg), r.queries.toString))(run)

  /** Accuracy of FEDEX-SAMPLING vs exact FEDEX as ground truth: precision@3
    * on skyline keys, Kendall-Tau distance and nDCG on the full candidate
    * ranking — averaged over `queries`, one row per sample size.
    */
  def samplingAccuracy(queries: Seq[BenchQuery], sampleSizes: Seq[Long]): Seq[AccuracyRow] = {
    val truths = queries.map(q => q -> Fedex.explain(q.step, cfg))
    sampleSizes.map { s =>
      val per = truths.map { case (q, truth) =>
        val pred      = Fedex.explain(q.step, cfg.copy(sampleRows = Some(s)))
        val truthSky  = truth.skyline.map(_.candidate.key)
        val predSky   = pred.skyline.map(_.candidate.key)
        val truthRank = truth.rankedKeys(cfg.wI, cfg.wC)
        val predRank  = pred.rankedKeys(cfg.wI, cfg.wC)
        (Metrics.precisionAtK(truthSky, predSky, 3),
         Metrics.kendallTauDistance(truthRank, predRank),
         Metrics.ndcg(truthRank, predRank))
      }
      AccuracyRow(s.toString,
        per.map(_._1).sum / per.size, per.map(_._2).sum / per.size,
        per.map(_._3).sum / per.size, per.size)
    }
  }

  /** Fig 7: accuracy vs sample size on Spotify/Products filter, join and
    * group-by queries. Each query runs 7 full explains (1 exact + 6 sampled),
    * so Spotify and Sales are cut to 80K rows to keep it in minutes; the
    * accuracy-vs-sample-size shape is unaffected.
    */
  val fig7: Figure[AccuracyRow] = accuracyFigure("Fig 7 | FEDEX-SAMPLING accuracy vs sample size", "sample")(
    frames => samplingAccuracy(
      select(frames(DataScale(spotifyRows = 80000, bankRows = 10127, productsRows = 9977, salesRows = 80000)),
        Seq(6, 7, 8, 4, 5, 21, 23, 24, 16, 18)),
      Seq(50L, 200L, 1000L, 5000L, 10000L, 50000L)))

  /** Fig 8: accuracy of the fixed 5K sample as the Sales row count grows
    * (queries 4 and 5), up to `BENCH_SALES_ROWS`.
    */
  val fig8: Figure[AccuracyRow] = accuracyFigure("Fig 8 | FEDEX-SAMPLING(5K) accuracy vs Products row count", "rows")(
    frames => Seq(50000L, 100000L, DataScale.bench.salesRows).distinct.map { n =>
      samplingAccuracy(select(frames(small(sales = n)), Seq(4, 5)), Seq(5000L)).head.copy(label = n.toString)
    })

  // ---------------------------------------------------------- Figure 9

  final case class RuntimeColsRow(nCols: Int, fedexSampling: Double, seedb: Double, rath: Double)

  /** Column names a query's operation itself needs (the paper always keeps
    * the query attribute in the projected schema).
    */
  def requiredCols(q: BenchQuery): Seq[(Int, Seq[String])] = q.step.op match {
    case f: FilterOp => Seq(0 -> f.columnsRead(q.step.inputs.head))
    case j: JoinOp => Seq(0 -> Seq(j.leftKey), 1 -> Seq(j.rightKey))
    case g: GroupByOp =>
      Seq(0 -> (g.keys ++ g.aggs.map(_.column).filter(_ != "*")).distinct)
    case _: UnionOp => q.step.inputs.indices.map(_ -> Seq.empty[String])
  }

  /** Rebuild the step with each input projected to (required ∪ chosen) cols. */
  def projectStep(q: BenchQuery, chosen: Seq[String]): Step = {
    val req = requiredCols(q).toMap
    val ins = q.step.inputs.zipWithIndex.map { case (df, i) =>
      val keep = (req.getOrElse(i, Seq.empty) ++ chosen.filter(df.columns.contains)).distinct
      df.select(keep.map(org.apache.spark.sql.functions.col): _*)
    }
    Step(ins, q.step.op, q.step.name)
  }

  /** Fig 9 protocol: always include the query attribute(s) and the most
    * interesting attribute, then add the remaining columns of the (first)
    * input in a fixed pseudo-random permutation; per column count, average
    * the runtime of FEDEX-SAMPLING / SEEDB / RATH over the dataset's queries.
    */
  private def runtimeVsColumns(queries: Seq[BenchQuery], colCounts: Seq[Int]): Seq[RuntimeColsRow] = {
    val rnd = new scala.util.Random(17)
    // fixed per query across all column counts (the paper's protocol): the
    // query attribute(s), the most interesting attribute, then a fixed
    // permutation of the rest
    val columnOrder: Map[Int, Seq[String]] = queries.map { q =>
      val base = q.step.inputs.head
      val topInteresting = Fedex.explain(q.step,
        sampled.copy(topKColumns = 1, nSets = Seq(5))).columnScores
        .toSeq.sortBy(-_._2).headOption.map(_._1).getOrElse(base.columns.head)
      val required = requiredCols(q).flatMap(_._2)
      val rest     = rnd.shuffle(base.columns.toSeq.filterNot(c =>
        required.contains(c) || c == topInteresting))
      q.num -> (required ++ Seq(topInteresting).filter(base.columns.contains) ++ rest).distinct
    }.toMap
    colCounts.map { k =>
      val per = queries.map { q =>
        val step = projectStep(q, columnOrder(q.num).take(k))
        (time(Fedex.explain(step, sampled)).seconds, time(SeeDb.recommend(step, k = 3)).seconds,
          time(Rath.topInsights(step.output, k = 3)).seconds)
      }
      RuntimeColsRow(k, per.map(_._1).sum / per.size, per.map(_._2).sum / per.size, per.map(_._3).sum / per.size)
    }
  }

  /** Fig 9, one panel per dataset: runtime vs column count over the
    * dataset's filter/join queries at bench scale.
    */
  val fig9: ListMap[String, Figure[RuntimeColsRow]] = ListMap(Seq(
    ("Bank", "a", Seq(11, 13, 14, 15), Seq(3, 5, 10, 15, 21)),
    ("Spotify", "b", Seq(6, 8, 9), Seq(3, 5, 10, 15, 20)),
    ("Products", "c", Seq(4, 5), Seq(3, 10, 20, 31))).map { case (ds, panel, nums, colCounts) =>
    ds -> new Figure[RuntimeColsRow](s"Fig 9$panel | runtime (s) vs #columns - $ds",
      Seq("cols", "FEDEX-S", "SEEDB", "RATH"),
      r => Seq(r.nCols.toString, f2(r.fedexSampling), f2(r.seedb), f2(r.rath)))(
      frames => runtimeVsColumns(select(frames(DataScale.bench), nums), colCounts))
  }: _*)

  // --------------------------------------------------------- Figure 10

  final case class RuntimeRowsRow(rows: Long, fedex: Double, fedexSampling: Double,
                                  seedb: Double, rath: Double)

  /** Fig 10, one panel per dataset: runtime of FEDEX, FEDEX-SAMPLING(5K),
    * SEEDB and RATH vs the dataset's row count, averaged over its filter/join
    * queries on fresh frames at each size; Spotify and Sales grow up to
    * `BENCH_SPOTIFY_ROWS` and `BENCH_SALES_ROWS`.
    */
  val fig10: ListMap[String, Figure[RuntimeRowsRow]] = ListMap(Seq[(String, String, Seq[Int], Seq[Long], Long => DataScale)](
    ("Bank", "a", Seq(11, 13, 14), Seq(2000L, 5000L, 10127L), n => small(bank = n)),
    ("Spotify", "b", Seq(6, 8), Seq(20000L, 80000L, DataScale.bench.spotifyRows), n => small(spotify = n)),
    ("Products", "c", Seq(4, 5), Seq(50000L, 100000L, DataScale.bench.salesRows), n => small(sales = n))
  ).map { case (ds, panel, nums, sizes, scale) =>
    ds -> new Figure[RuntimeRowsRow](s"Fig 10$panel | runtime (s) vs #rows - $ds",
      Seq("rows", "FEDEX", "FEDEX-S", "SEEDB", "RATH"),
      r => Seq(r.rows.toString, f2(r.fedex), f2(r.fedexSampling), f2(r.seedb), f2(r.rath)))(
      frames => sizes.distinct.map { n =>
        val per = select(frames(scale(n)), nums).map { q =>
          (time(Fedex.explain(q.step, cfg)).seconds, time(Fedex.explain(q.step, sampled)).seconds,
            time(SeeDb.recommend(q.step, k = 3)).seconds, time(Rath.topInsights(q.step.output, k = 3)).seconds)
        }
        RuntimeRowsRow(n, per.map(_._1).sum / per.size, per.map(_._2).sum / per.size,
          per.map(_._3).sum / per.size, per.map(_._4).sum / per.size)
      })
  }: _*)

  // --------------------------------------------------------- Figure 11

  final case class SetsRow(n: Int, topContribution: Double, topSet: String)

  /** Fig 11, one table per query (7, then 3) at bench scale: the top raw
    * contribution as the number of sets-of-rows varies, explaining only the
    * query's most interesting column.
    */
  val fig11: Seq[Figure[SetsRow]] = Seq(7 -> "Spotify, year>1990", 3 -> "stores JOIN sales").map { case (num, what) =>
    new Figure[SetsRow](s"Fig 11 | top contribution vs #sets - q$num ($what)", Seq("n sets", "top C", "top set"),
      r => Seq(r.n.toString, f3(r.topContribution), r.topSet.take(40)))(frames => {
      val q = select(frames(DataScale.bench), Seq(num)).head
      Seq(2, 3, 5, 8, 10, 15, 20).map { n =>
        val res = Fedex.explain(q.step, cfg.copy(topKColumns = 1, nSets = Seq(n)))
        val top = res.candidates.sortBy(c => (-c.contribution, c.key)).headOption
        SetsRow(n, top.map(_.contribution).getOrElse(0.0), top.map(_.set).getOrElse("-"))
      }
    })
  }

  // ------------------------------------------------ User study (Figs 3/5/6)

  /** The study runs two full explains (exact and sampled) per query for each
    * method, so Spotify and Sales are cut to 80K and 60K rows.
    */
  private val studyScale = DataScale(spotifyRows = 80000, bankRows = 10127, productsRows = 9977, salesRows = 60000)

  final case class StudyRow(dataset: String, method: String, grade: Double, queries: Int)

  /** Figs 3/6 proxy: average simulated 1–7 grade per (dataset, method) over
    * the queries with a planted insight.
    */
  val fig3: Figure[StudyRow] = new Figure[StudyRow]("Fig 3/6 | simulated 1-7 grades (planted-insight recovery proxy)",
    Seq("dataset", "method", "grade", "queries"),
    r => Seq(r.dataset, r.method, f2(r.grade), r.queries.toString))(frames => {
    val qs = select(frames(studyScale), UserProxy.planted.map(_.queryNum)).zip(UserProxy.planted)
    qs.groupBy(_._1.dataset).toSeq.sortBy(_._1).flatMap { case (ds, dsQs) =>
      Seq("EXPERT", "FEDEX", "FEDEX-SAMPLING", "IO", "SEEDB", "RATH").map { m =>
        val grades = dsQs.map { case (q, ins) => UserProxy.grade(UserProxy.credit(m, q, ins, cfg)) }
        StudyRow(ds, m, grades.sum / grades.size, grades.size)
      }
    }
  })

  final case class InsightRow(dataset: String, assisted: Double, unassisted: Double)

  /** Fig 5 proxy: planted insights recovered with FEDEX-SAMPLING(5K)
    * assistance vs the random-glance unassisted simulation with a budget of
    * 10 probes.
    */
  val fig5: Figure[InsightRow] = new Figure[InsightRow]("Fig 5 | planted insights recovered (simulated)",
    Seq("dataset", "assisted (FEDEX-S)", "unassisted"),
    r => Seq(r.dataset, f2(r.assisted), f2(r.unassisted)))(frames =>
    Seq("Spotify" -> Seq(6, 7, 21, 22), "Bank" -> Seq(11, 12, 13, 27)).map { case (ds, nums) =>
      val qs  = select(frames(studyScale), nums)
      val ins = qs.flatMap(q => UserProxy.planted.find(_.queryNum == q.num).map(q -> _))
      InsightRow(ds,
        ins.count { case (q, i) => UserProxy.credit("FEDEX-SAMPLING", q, i, sampled) >= 0.5 }.toDouble,
        UserProxy.unassistedHits(qs.head.step.inputs.head.columns.toSeq, ins.map(_._2), 10, 3).toDouble)
    })
}
